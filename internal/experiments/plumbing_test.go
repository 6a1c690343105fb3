package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// notInOptions pins the Params fields that never reach core.Options, with
// the reason each stays out.
var notInOptions = map[string]string{
	"CharInstr":  "consumed by the single-core characterisation runs (RunMeasured), not Options construction",
	"CharWarmup": "consumed by the single-core characterisation runs (RunMeasured), not Options construction",
	"Workers":    "concurrency cap only: results are byte-identical for every worker count",
}

// fieldNames lists the exported field names of a struct type in
// declaration order.
func fieldNames(typ reflect.Type) []string {
	var names []string
	for _, f := range reflect.VisibleFields(typ) {
		if f.IsExported() {
			names = append(names, f.Name)
		}
	}
	return names
}

// everyKnobParams sets every RENUCA_* knob to a valid non-default value and
// returns ParamsFromEnv(DefaultParams()).
func everyKnobParams(t *testing.T) Params {
	t.Helper()
	for name, v := range map[string]string{
		"RENUCA_INSTR":        "1234",
		"RENUCA_WARMUP":       "99",
		"RENUCA_CHAR_INSTR":   "777",
		"RENUCA_CHAR_WARMUP":  "55",
		"RENUCA_SEED":         "9",
		"RENUCA_WORKERS":      "3",
		"RENUCA_L2":           "131072",
		"RENUCA_L3BANK":       "1048576",
		"RENUCA_ROB":          "168",
		"RENUCA_THRESHOLD":    "25",
		"RENUCA_INTRABANK_WL": "1",
		"RENUCA_WRITE_LAT":    "250",
	} {
		t.Setenv(name, v)
	}
	p, err := ParamsFromEnv(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEnvKnobsSetEveryParam requires the RENUCA_* knobs together to change
// every Params field: a field no knob reaches cannot be turned by
// renuca-bench's users.
func TestEnvKnobsSetEveryParam(t *testing.T) {
	def, set := reflect.ValueOf(DefaultParams()), reflect.ValueOf(everyKnobParams(t))
	for _, name := range fieldNames(def.Type()) {
		if reflect.DeepEqual(def.FieldByName(name).Interface(), set.FieldByName(name).Interface()) {
			t.Errorf("no RENUCA_* knob sets Params.%s", name)
		}
	}
}

// TestRunnerOptionsReadEveryParam changes one Params field at a time and
// requires Runner.options to change, except for the fields notInOptions
// pins, which must leave it alone.
func TestRunnerOptionsReadEveryParam(t *testing.T) {
	set := reflect.ValueOf(everyKnobParams(t))
	base := (&Runner{P: DefaultParams()}).options(core.ReNUCA)
	for _, name := range fieldNames(set.Type()) {
		p := DefaultParams()
		reflect.ValueOf(&p).Elem().FieldByName(name).Set(set.FieldByName(name))
		changed := !reflect.DeepEqual((&Runner{P: p}).options(core.ReNUCA), base)
		reason, exempt := notInOptions[name]
		switch {
		case exempt && changed:
			t.Errorf("Params.%s now reaches Runner.options; drop it from notInOptions (%s)", name, reason)
		case !exempt && !changed:
			t.Errorf("Params.%s does not reach Runner.options: the knob never changes a simulation", name)
		}
	}
	for name := range notInOptions {
		if _, ok := set.Type().FieldByName(name); !ok {
			t.Errorf("notInOptions names Params.%s, which does not exist", name)
		}
	}
}

// TestParamsReachEveryOption requires every core.Options field that a
// study does not set itself (Policy and Apps) to be reached from some
// Params field, so renuca-bench can set it.
func TestParamsReachEveryOption(t *testing.T) {
	def := reflect.ValueOf((&Runner{P: DefaultParams()}).options(core.ReNUCA))
	set := reflect.ValueOf((&Runner{P: everyKnobParams(t)}).options(core.ReNUCA))
	for _, name := range fieldNames(def.Type()) {
		if name == "Policy" || name == "Apps" {
			continue
		}
		if reflect.DeepEqual(def.FieldByName(name).Interface(), set.FieldByName(name).Interface()) {
			t.Errorf("no Params field reaches Options.%s", name)
		}
	}
}
