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
	flag.Parse()

	var o core.Options
	o.Instr = *instr
	o.Seed = *seed
	_ = core.Run(o)
	_ = core.SuiteUnits(o, 2)
}
