//go:build simcheck

package cpu

import "repro/internal/sancheck"

// sanCheckCommit validates that the ROB head about to commit — and free
// its slot for reuse — is no pending operation's producer. A pending
// consumer reads its producer's completion from the producer's slot, so it
// must have issued by now (see pendingOp); if it had not, the reused slot
// would hand it another instruction's completion time.
func (c *Core) sanCheckCommit() {
	for i := range c.pending {
		if p := &c.pending[i]; p.depIdx == c.head || p.robIdx == c.head {
			sancheck.Failf("cpu: core %d commits ROB slot %d while pending op %d (slot %d, producer slot %d) still depends on it",
				c.id, c.head, i, p.robIdx, p.depIdx)
		}
	}
}
