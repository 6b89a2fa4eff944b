//go:build !amd64

package memory

// prefetchLines is a no-op where no prefetch kernel exists: spans are
// still zero-copy, their cache misses just are not overlapped.
func prefetchLines(p *byte, n int) {}
