package cluster

// State reports the endpoint's current health state.
func (e *endpoint) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}
