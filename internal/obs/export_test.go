package obs

// Sample returns the sampling probability.
func (t *Tracer) Sample() float64 { return t.sample }
