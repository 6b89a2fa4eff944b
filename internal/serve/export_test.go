package serve

// CoalescerState reports, atomically, how many rows sit in the named
// table's forming batch and whether its drain goroutine is alive. The
// coalescer's invariant is queued == 0 || running at every instant.
func (s *Service) CoalescerState(table string) (queued int, running bool) {
	ts, err := s.table(table)
	if err != nil {
		panic(err)
	}
	co := ts.co
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.queued), co.running
}
