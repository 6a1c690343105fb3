// Command renuca-sim (fixture): every properly plumbed knob is a CLI flag;
// Knob has no flag anywhere, so optflow reports it unsettable.
package main

import (
	"flag"

	"repro/internal/lint/testdata/optflow/internal/core"
)

func main() {
	instr := flag.Uint64("instr", 1000, "instructions per core")
	seed := flag.Uint64("seed", 1, "simulation seed")
	tuned := flag.Uint64("tuned", 0, "tuning knob")
	flag.Parse()

	var o core.Options
	o.Instr = *instr
	o.Seed = *seed
	o.Tuned = *tuned
	_ = core.Run(o)
	_ = core.SuiteUnits(o, 2)
}
