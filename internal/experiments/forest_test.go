package experiments

import (
	"strings"
	"testing"
)

// TestForestVsTree pins the ensemble's value proposition: on at least one
// bundled dataset, a 25-tree bagged forest must beat the single-tree
// cross-validation accuracy under the identical protocol and folds. It also
// sanity-checks the reported OOB numbers.
func TestForestVsTree(t *testing.T) {
	opts := Options{Scale: 0.25, S: 40, Seed: 1, Folds: 5, Workers: 4, Datasets: []string{"Iris", "Glass"}}
	rows, err := ForestVsTree(opts, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	beats := 0
	for _, r := range rows {
		if r.Trees != 25 {
			t.Fatalf("%s: row reports %d trees", r.Dataset, r.Trees)
		}
		if r.ForestAcc > r.TreeAcc {
			beats++
		}
		if r.OOBAcc <= 0 || r.OOBAcc > 1 {
			t.Fatalf("%s: OOB accuracy %v implausible", r.Dataset, r.OOBAcc)
		}
		if r.OOBBrier < 0 || r.OOBBrier > 2 {
			t.Fatalf("%s: OOB Brier %v implausible", r.Dataset, r.OOBBrier)
		}
	}
	if beats == 0 {
		for _, r := range rows {
			t.Logf("%s: tree %.4f forest %.4f", r.Dataset, r.TreeAcc, r.ForestAcc)
		}
		t.Fatal("the 25-tree forest beat the single tree on no dataset")
	}

	var sb strings.Builder
	FprintForest(&sb, rows)
	out := sb.String()
	for _, want := range []string{"dataset", "Iris", "Glass", "OOB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestForestVsTreeUnknownDataset surfaces filter typos instead of silently
// running nothing.
func TestForestVsTreeUnknownDataset(t *testing.T) {
	if _, err := ForestVsTree(Options{Datasets: []string{"NoSuch"}}, 5); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
