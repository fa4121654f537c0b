package simnet

// QuarantinePackets puts the engine's packet pool in quarantine for the
// rest of its life: a released packet is overwritten with poison values
// and never reused, so a run computes something else if anybody reads a
// packet after the engine released it.
func (e *Engine) QuarantinePackets() { e.pool.Quarantine() }
