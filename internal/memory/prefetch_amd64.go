//go:build amd64

package memory

// prefetchLines issues one PREFETCHT0 for every 64-byte line that
// overlaps the n bytes at p. A prefetch cannot fault and retires without
// waiting for its data, so a run of them puts that many cache misses in
// flight at once; a load would hold up retirement until its line arrived.
//
//go:noescape
func prefetchLines(p *byte, n int)
