//go:build !unix || aix

package interp

// mapAnon has no reservation primitive here: every memory is heap-backed.
func mapAnon(n uint64) []byte { return nil }

func unmapAnon(b []byte) {}
