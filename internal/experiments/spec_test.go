package experiments

import (
	"reflect"
	"testing"
)

// specSet marks a config field the Spec derives.
const specSet = ""

// campaignFields says where every field of inject.CampaignConfig comes
// from: specSet for a field Spec.CampaignConfig derives, otherwise why the
// spec leaves it alone.
var campaignFields = map[string]string{
	"Benchmarks":             specSet,
	"Mode":                   "constant: PV, the paper's setup",
	"InjectionsPerBenchmark": specSet,
	"Activations":            specSet,
	"Seed":                   specSet,
	"Workers":                "caller-set: parallelism, which no result depends on",
	"Detection":              "constant: full Xentry, the configuration under test",
	"Model":                  "caller-set: trained from TrainScale, or shipped to a fleet worker",
	"Recover":                specSet,
	"Recovery":               specSet,
	"CheckpointEvery":        specSet,
	"Progress":               "caller-set: a display hook",
	"SwitchDispatch":         "constant: the threaded translator's test oracle",
	"Detectors":              specSet,
	"DisablePrune":           specSet,
	"VCPUs":                  specSet,
	"Targets":                specSet,
}

// datasetFields says the same for inject.DatasetConfig, as Train collects
// the spec's training (DatasetConfigs of TrainScale).
var datasetFields = map[string]string{
	"Benchmarks":             "constant: training samples every benchmark, whatever the campaign injects",
	"Mode":                   "constant: PV, the paper's setup",
	"FaultFreeRuns":          "constant: DefaultScale's",
	"Activations":            specSet,
	"InjectionsPerBenchmark": specSet,
	"Seed":                   specSet,
	"Workers":                "caller-set: parallelism, which no result depends on",
	"SwitchDispatch":         "constant: the threaded translator's test oracle",
	"DisablePrune":           "constant: pruning's test oracle; dataset bytes are identical either way",
}

// notTrained lists the Spec fields the training leaves out, and why.
var notTrained = map[string]string{
	"ID":                     "names the campaign, not what it computes",
	"Benchmarks":             "training samples every benchmark",
	"InjectionsPerBenchmark": "sizes the campaign only",
	"CheckpointEvery":        "mechanism: every interval gives the same results",
	"Recover":                "recovery answers the campaign's detections",
	"Recovery":               "recovery answers the campaign's detections",
	"Detectors":              "plugin detectors run beside the model, on the campaign's machines",
	"Prune":                  "mechanism: dataset bytes are identical either way",
	"Execution":              "where the campaign runs, not what it computes",
	"VCPUs":                  "training runs on a 1-vCPU machine (ROADMAP item 1)",
	"Targets":                "training injects registers only, the paper's training fault model",
}

// TestSpecDerivesEveryField guards the one derivation against a config
// field it forgets: every field of inject.CampaignConfig and
// inject.DatasetConfig is derived from the Spec or listed above with a
// reason, and every Spec field reaches the training or is listed as not.
func TestSpecDerivesEveryField(t *testing.T) {
	// Between them the two specs set every field; Recover and Recovery
	// exclude each other.
	specs := []Spec{{
		ID: "a", Benchmarks: []string{"mcf"}, InjectionsPerBenchmark: 3, Activations: 40, Seed: 5,
		CheckpointEvery: 4, Recover: true, TrainInjections: 60, Detectors: []string{"watchdog"},
		Prune: "off", Execution: "fleet", VCPUs: 2, Targets: []string{"dtlb", "gpr"},
	}, {
		InjectionsPerBenchmark: 3, Recovery: "policy",
	}}
	var campaigns, datasets []any
	for _, sp := range specs {
		cfg, err := sp.CampaignConfig()
		if err != nil {
			t.Fatal(err)
		}
		train, test := DatasetConfigs(sp.TrainScale())
		campaigns = append(campaigns, cfg)
		datasets = append(datasets, train, test)
	}
	checkFields(t, campaigns, campaignFields)
	checkFields(t, datasets, datasetFields)

	training := func(sp Spec) []any {
		train, test := DatasetConfigs(sp.TrainScale())
		return []any{train, test}
	}
	base := specs[0]
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		sp := base
		perturb(t, reflect.ValueOf(&sp).Elem().Field(i))
		name := typ.Field(i).Name
		reaches := !reflect.DeepEqual(training(sp), training(base))
		reason, listed := notTrained[name]
		switch {
		case reaches && listed:
			t.Errorf("Spec.%s reaches the training but is listed as left out (%s)", name, reason)
		case !reaches && !listed:
			t.Errorf("Spec.%s does not reach the training: derive it in TrainScale or list why not", name)
		}
	}
}

// checkFields fails on every field of the derived configs' struct type that
// sources does not list, on a field listed as spec-set that is zero in all
// of them, and on a listed name the type does not have.
func checkFields(t *testing.T, derived []any, sources map[string]string) {
	t.Helper()
	typ := reflect.TypeOf(derived[0])
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		reason, listed := sources[name]
		if !listed {
			t.Errorf("%s.%s: the Spec neither sets it nor lists why not", typ, name)
			continue
		}
		if reason != specSet {
			continue
		}
		set := false
		for _, v := range derived {
			set = set || !reflect.ValueOf(v).Field(i).IsZero()
		}
		if !set {
			t.Errorf("%s.%s: listed as derived from the Spec, but zero from every test spec", typ, name)
		}
	}
	for name := range sources {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s has no field %s: drop it from the list", typ, name)
		}
	}
}

// perturb changes a Spec field's value without validating it, far enough
// that an integer field survives the training's divisions.
func perturb(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(2*f.Int() + 7)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.ValueOf("x")))
	default:
		t.Fatalf("perturb: no rule for a %s field", f.Kind())
	}
}

// TestSpecSizeBounds: every size is valid at its maximum, and the largest
// specs the repository runs stay valid. TestServerRejectsBadSpecs
// (internal/server) sends one past each maximum.
func TestSpecSizeBounds(t *testing.T) {
	for name, sp := range map[string]Spec{
		"xbench served": {InjectionsPerBenchmark: 20000, TrainInjections: 12000},
		"fleet-smoke": {
			Benchmarks: []string{"canneal", "bzip2"}, InjectionsPerBenchmark: 1500, Activations: 48,
			Seed: 29, TrainInjections: 600, Recovery: "microreboot", Execution: "fleet",
		},
		"maxima": {
			InjectionsPerBenchmark: maxInjectionsPerBenchmark, Activations: maxActivations,
			TrainInjections: maxTrainInjections,
		},
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
