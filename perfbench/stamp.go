package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"gowali"
)

// stamp identifies the machine and build a result came from. Results
// with different stamps (other than the seed) are never compared.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Tier       string `json:"tier"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newStamp(seed int64) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Tier:       gowali.TierFused.String(), // the runtime's default tier, used by every workload
		Commit:     commit,
		Seed:       seed,
	}
}

// machine is the part of the stamp two comparable results share.
func (s stamp) machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s tier=%s", s.CPU, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Tier)
}

func (s stamp) String() string {
	return fmt.Sprintf("%s commit=%s seed=%d", s.machine(), s.Commit, s.Seed)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
