package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"udt/internal/data"
	"udt/internal/pdf"
)

// streamFixture builds a labelled dataset and a matching prediction vector
// with a few deliberate mistakes.
func streamFixture(n int) (*data.Dataset, []int) {
	ds := data.NewDataset("acc", 1, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(11))
	preds := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		tu := ds.Add(c, pdf.Point(float64(i)))
		tu.Weight = 0.5 + rng.Float64()
		preds[i] = c
		if i%7 == 0 {
			preds[i] = (c + 1) % 3
		}
	}
	return ds, preds
}

// TestAccumulatorMatchesWholeSet: folding a set batch-by-batch must agree
// exactly (bit-for-bit) with a hand count over the whole set, for several
// chunk sizes.
func TestAccumulatorMatchesWholeSet(t *testing.T) {
	ds, preds := streamFixture(100)
	// streamFixture mispredicts every 7th tuple: i = 0, 7, ..., 98.
	wantAcc := 85.0 / 100
	wantConf := make([][]float64, len(ds.Classes))
	for i := range wantConf {
		wantConf[i] = make([]float64, len(ds.Classes))
	}
	for i, tu := range ds.Tuples {
		wantConf[tu.Class][preds[i]] += tu.Weight
	}
	for _, chunk := range []int{1, 7, 32, 100, 1000} {
		a := NewAccumulator(ds.Classes)
		for lo := 0; lo < ds.Len(); lo += chunk {
			hi := lo + chunk
			if hi > ds.Len() {
				hi = ds.Len()
			}
			a.Add(ds.Tuples[lo:hi], preds[lo:hi])
		}
		if a.Total() != ds.Len() {
			t.Fatalf("chunk %d: total %d, want %d", chunk, a.Total(), ds.Len())
		}
		if got := a.Accuracy(); got != wantAcc {
			t.Errorf("chunk %d: accuracy %v, want %v", chunk, got, wantAcc)
		}
		if got := a.Confusion(); !reflect.DeepEqual(got, wantConf) {
			t.Errorf("chunk %d: confusion %v, want %v", chunk, got, wantConf)
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	a := NewAccumulator([]string{"x", "y"})
	if a.Accuracy() != 0 || a.Total() != 0 {
		t.Fatalf("fresh accumulator: acc=%v total=%d", a.Accuracy(), a.Total())
	}
	if got := a.Confusion(); len(got) != 2 || got[0][0] != 0 {
		t.Fatalf("fresh confusion: %v", got)
	}
}
