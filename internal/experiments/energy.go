package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
)

// EnergyPoint is one (policy, technology) energy estimate over WL1.
type EnergyPoint struct {
	Policy    string
	Breakdown energy.Breakdown
}

// EnergyStudy estimates the LLC/DRAM/NoC energy of each NUCA policy on WL1
// under both LLC technologies — the paper's Section I motivation ("standby
// power is up to 80% of total" for SRAM LLCs; ReRAM's near-zero standby is
// why its endurance problem is worth solving).
func (r *Runner) EnergyStudy() ([]EnergyPoint, error) {
	wl := r.workloads()[0]
	policies := core.Policies()
	out := make([]EnergyPoint, 2*len(policies))
	r.logf("energy", "energy study: %v on %s", policies, wl.Name)
	err := r.pool.Map(len(policies), func(i int) error {
		p := policies[i]
		o := r.options(p)
		o.Apps = wl.Apps
		rep, err := core.Run(o)
		if err != nil {
			return fmt.Errorf("energy study %s: %w", p, err)
		}
		// Technology comparison is post-processing of the same run: SRAM
		// at slot 2i, ReRAM at 2i+1, matching the serial ordering.
		for t, tech := range []energy.Technology{energy.SRAM(), energy.ReRAM()} {
			b, err := energy.Estimate(tech, rep.Energy)
			if err != nil {
				return err
			}
			out[2*i+t] = EnergyPoint{Policy: rep.Policy, Breakdown: b}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.sims += uint64(len(policies))
	return out, nil
}

// RenderEnergyStudy prints the per-policy, per-technology breakdown.
func RenderEnergyStudy(points []EnergyPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Energy study on WL1: LLC technology comparison (motivation, paper §I)")
	fmt.Fprintf(&b, "%-9s %-6s %12s %12s %9s %8s %8s %8s %10s %12s\n",
		"policy", "tech", "LLC dyn[mJ]", "LLC leak[mJ]", "DRAM dyn", "DRAM bg", "NoC rtr", "NoC lnk", "total[mJ]", "leak share")
	for _, p := range points {
		bd := p.Breakdown
		fmt.Fprintf(&b, "%-9s %-6s %12.3f %12.3f %9.3f %8.3f %8.3f %8.3f %10.3f %11.0f%%\n",
			p.Policy, bd.Technology, bd.LLCDynamic, bd.LLCLeakage,
			bd.DRAMDynamic, bd.DRAMBackground, bd.NoCRouter, bd.NoCLink,
			bd.Total(), 100*bd.LeakageShare())
	}
	b.WriteString("(SRAM's LLC energy is leakage-dominated — the paper's case for ReRAM;\n")
	b.WriteString(" ReRAM pays more per write, which is why its wear must be levelled)\n")
	return b.String()
}
