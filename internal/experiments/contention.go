package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/nuca"
)

// ContentionResult is the bank contention view of one variant's five
// policy suites: the waits the windowed bank model charged and the
// requests it let slip, summed over all ten workloads exactly as the suite
// aggregates IPC.
type ContentionResult struct {
	Variant      string
	VariantLabel string
	// Policies holds the policy names in canonical core.Policies() order;
	// Queue is keyed by those names.
	Policies []string
	Queue    map[string]nuca.QueueStats
}

// Contention reads the bank contention counters off the memoised
// five-policy suite for a variant. It shares the suites every lifetime and
// IPC experiment uses, so it adds no simulations of its own.
func (r *Runner) Contention(v Variant) (*ContentionResult, error) {
	set, err := r.suiteSet(v)
	if err != nil {
		return nil, err
	}
	res := &ContentionResult{
		Variant:      v.Key,
		VariantLabel: v.Label,
		Queue:        make(map[string]nuca.QueueStats, len(set)),
	}
	for _, p := range core.Policies() {
		name := p.String()
		res.Policies = append(res.Policies, name)
		res.Queue[name] = set[name].LLC.Queue
	}
	return res, nil
}

// Render prints one row per policy: requests that waited for a busy bank
// and the cycles they waited, split by reads and writes, and the requests
// that slipped past a bank busy beyond the contention window.
func (cr *ContentionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bank contention (%s): %d-cycle window, all 10 workloads\n", cr.VariantLabel, nuca.BankContentionWindow)
	fmt.Fprintf(&b, "%-9s %10s %13s %10s %13s %10s\n",
		"policy", "rd queued", "rd wait[cyc]", "wr queued", "wr wait[cyc]", "slipped")
	for _, name := range cr.Policies {
		q := cr.Queue[name]
		fmt.Fprintf(&b, "%-9s %10d %13d %10d %13d %10d\n",
			name, q.ReadQueued, q.ReadWaitCycles, q.WriteQueued, q.WriteWaitCycles, q.Slipped)
	}
	b.WriteString("(a request waits for its bank only within the window; one arriving while\n")
	b.WriteString(" the bank is busy beyond it is served uncharged and counted as slipped)\n")
	return b.String()
}
