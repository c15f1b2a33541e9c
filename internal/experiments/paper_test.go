package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestReportMatchesEntryPoints: WriteReport reaches the sweeps, the live
// recovery study and the microreboot classification through shared
// intermediate results, while library callers (the xbench harness among
// them) call the public entry points, which compute those results
// themselves. Both paths must print the same sections.
func TestReportMatchesEntryPoints(t *testing.T) {
	sc := QuickScale()
	var b bytes.Buffer
	if err := WriteReport(&b, sc, nil); err != nil {
		t.Fatal(err)
	}
	report := b.String()

	train, err := Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Sweeps(sc)
	if err != nil {
		t.Fatal(err)
	}
	study, err := Recovery(sc, train.Best())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoveryClassification(sc, train.Best())
	if err != nil {
		t.Fatal(err)
	}
	for name, section := range map[string]string{
		"Train":                  train.Render(),
		"Sweeps":                 sw.Render(),
		"Recovery":               study.Render(),
		"RecoveryClassification": RenderRecovery(rec),
	} {
		if !strings.Contains(report, section) {
			t.Errorf("report lacks %s's section:\n%s", name, section)
		}
	}
}
