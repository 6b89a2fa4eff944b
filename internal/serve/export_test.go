package serve

// CoalescerState reports, atomically, how many rows of the named table
// sit in its coalescer's forming drain and whether that coalescer's
// drain goroutine is alive. The coalescer's invariant is queued == 0 || running at every
// instant.
func (s *Service) CoalescerState(table string) (queued int, running bool) {
	ts, err := s.table(table)
	if err != nil {
		panic(err)
	}
	co := ts.co
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(ts.queued), co.running
}
