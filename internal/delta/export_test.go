package delta

// FanIn reports the watch population and the subscribed entries backing
// it.
func (m *Manager) FanIn() (watches, entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watches, m.subscribed
}
