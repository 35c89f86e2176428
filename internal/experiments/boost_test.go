package experiments

import (
	"strings"
	"testing"
)

// TestBoostVsBagged pins the boosted ensemble's value proposition (the boost
// twin of TestForestVsTree): on at least one bundled dataset the boosted
// ensemble must beat the single-tree cross-validation accuracy under the
// identical protocol and folds, with sane vote weights.
func TestBoostVsBagged(t *testing.T) {
	opts := Options{Scale: 0.25, S: 40, Seed: 1, Folds: 5, Workers: 4, Datasets: []string{"Iris", "Glass"}}
	rows, err := BoostVsBagged(opts, 15, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	beats := 0
	for _, r := range rows {
		if r.Rounds != 15 {
			t.Fatalf("%s: row reports %d rounds", r.Dataset, r.Rounds)
		}
		if r.Kept < 1 || r.Kept > 15 {
			t.Fatalf("%s: kept %d members of 15 rounds", r.Dataset, r.Kept)
		}
		if r.BoostAcc > r.TreeAcc {
			beats++
		}
		if !(r.AlphaRange[0] > 0) || r.AlphaRange[1] < r.AlphaRange[0] {
			t.Fatalf("%s: implausible alpha range %v", r.Dataset, r.AlphaRange)
		}
	}
	if beats == 0 {
		for _, r := range rows {
			t.Logf("%s: tree %.4f bagged %.4f boosted %.4f", r.Dataset, r.TreeAcc, r.BaggedAcc, r.BoostAcc)
		}
		t.Fatal("the boosted ensemble beat the single tree on no dataset")
	}

	var sb strings.Builder
	FprintBoost(&sb, rows)
	out := sb.String()
	for _, want := range []string{"dataset", "Iris", "Glass", "boost acc", "alpha"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestBoostVsBaggedUnknownDataset surfaces filter typos instead of silently
// running nothing.
func TestBoostVsBaggedUnknownDataset(t *testing.T) {
	if _, err := BoostVsBagged(Options{Datasets: []string{"NoSuch"}}, 5, 5); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
