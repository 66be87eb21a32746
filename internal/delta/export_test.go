package delta

// Counters reports how many (change, subscribed entry) decisions
// skipped, re-evaluated without a flip, and flipped.
func (m *Manager) Counters() (skipped, reevaluated, flipped uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decided[OutcomeSkipped], m.decided[OutcomeReevaluated], m.decided[OutcomeFlipped]
}

// FanIn reports the watch population and the subscribed entries backing
// it.
func (m *Manager) FanIn() (watches, entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watches, m.subscribed
}
