package experiments

import (
	"reflect"
	"strconv"
	"strings"
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
	for _, k := range envKnobs {
		t.Setenv(k.name, k.value)
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
	base := (&Runner{p: DefaultParams()}).options(core.ReNUCA)
	for _, name := range fieldNames(set.Type()) {
		p := DefaultParams()
		reflect.ValueOf(&p).Elem().FieldByName(name).Set(set.FieldByName(name))
		changed := !reflect.DeepEqual((&Runner{p: p}).options(core.ReNUCA), base)
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

// envKnobs maps each knob ParamsFromEnv reads to the Params field it sets,
// with a valid value other than DefaultParams'.
var envKnobs = []struct{ name, field, value string }{
	{"RENUCA_INSTR", "InstrPerCore", "1234"},
	{"RENUCA_WARMUP", "Warmup", "99"},
	{"RENUCA_CHAR_INSTR", "CharInstr", "777"},
	{"RENUCA_CHAR_WARMUP", "CharWarmup", "55"},
	{"RENUCA_SEED", "Seed", "9"},
	{"RENUCA_WORKERS", "Workers", "3"},
}

// removedEnvKnobs are the knobs ParamsFromEnv must reject when set, listed
// apart from removedKnobs so that dropping one there fails here.
var removedEnvKnobs = []string{
	"RENUCA_QUEUE", "RENUCA_CWINDOW", "RENUCA_L2", "RENUCA_L3BANK",
	"RENUCA_ROB", "RENUCA_THRESHOLD", "RENUCA_INTRABANK_WL", "RENUCA_WRITE_LAT",
}

// FuzzParamsFromEnv sets one knob, read or removed, to an arbitrary value;
// knob indexes envKnobs and then removedEnvKnobs, modulo their total. A read
// knob yields either an error naming it or the all-unset result with
// exactly its field set to the value. A set removed knob is always an
// error naming it. An empty value is unset.
func FuzzParamsFromEnv(f *testing.F) {
	f.Fuzz(func(t *testing.T, knob uint8, value string) {
		if strings.IndexByte(value, 0) >= 0 {
			t.Skip("t.Setenv cannot set a value containing NUL")
		}
		for _, k := range envKnobs {
			t.Setenv(k.name, "")
		}
		for _, name := range removedEnvKnobs {
			t.Setenv(name, "")
		}
		unset, err := ParamsFromEnv(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}

		i := int(knob) % (len(envKnobs) + len(removedEnvKnobs))
		if i >= len(envKnobs) {
			name := removedEnvKnobs[i-len(envKnobs)]
			t.Setenv(name, value)
			_, err := ParamsFromEnv(DefaultParams())
			if (err != nil) != (value != "") || err != nil && !strings.Contains(err.Error(), name) {
				t.Errorf("%s=%q: err = %v, want an error naming %s exactly when it is set", name, value, err, name)
			}
			return
		}

		k := envKnobs[i]
		t.Setenv(k.name, value)
		got, err := ParamsFromEnv(DefaultParams())
		if err != nil {
			if value == "" || !strings.Contains(err.Error(), k.name) {
				t.Errorf("%s=%q: err = %v, want none when unset, else one naming %s", k.name, value, err, k.name)
			}
			return
		}
		want := unset
		if value != "" {
			n, perr := strconv.ParseUint(strings.TrimPrefix(value, "+"), 10, 64)
			if perr != nil || n == 0 {
				t.Fatalf("%s=%q accepted, but it is not a positive integer", k.name, value)
			}
			if fv := reflect.ValueOf(&want).Elem().FieldByName(k.field); fv.CanUint() {
				fv.SetUint(n)
			} else {
				fv.SetInt(int64(n))
			}
		}
		if got != want {
			t.Errorf("%s=%q:\n got %+v\nwant %+v", k.name, value, got, want)
		}
	})
}
