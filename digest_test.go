package udt_test

// Trained-byte pins across commits. The determinism matrix compares a commit
// with itself; these digests compare it with every earlier one. A change
// that moves a digest changes what training produces, and must say why
// (see CHANGES.md) rather than regenerate the table to absorb it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"udt"
	"udt/internal/binfmt"
	"udt/internal/data"
	"udt/internal/uci"
)

// trainedDigests is sha256(json.Marshal(model)) per row of
// TestTrainedModelDigests.
var trainedDigests = map[string]string{
	"continuous/UDT/entropy":        "f477f42a788f69adab2c25f4b8e5f1ebc049b236fcd4e7397c9fb5cb1900b760",
	"continuous/UDT/gini":           "048f0296334087e797d32e9be5254a05ad80f3b2c6ae6ca2268dc636dcb4238e",
	"continuous/UDT/gainratio":      "4903ca6f218347069a9aa9bfe42c9aa19ab0afb4042260e781bc38890b8daabe",
	"continuous/UDT-BP/entropy":     "f477f42a788f69adab2c25f4b8e5f1ebc049b236fcd4e7397c9fb5cb1900b760",
	"continuous/UDT-BP/gini":        "048f0296334087e797d32e9be5254a05ad80f3b2c6ae6ca2268dc636dcb4238e",
	"continuous/UDT-BP/gainratio":   "4903ca6f218347069a9aa9bfe42c9aa19ab0afb4042260e781bc38890b8daabe",
	"continuous/UDT-LP/entropy":     "f477f42a788f69adab2c25f4b8e5f1ebc049b236fcd4e7397c9fb5cb1900b760",
	"continuous/UDT-LP/gini":        "048f0296334087e797d32e9be5254a05ad80f3b2c6ae6ca2268dc636dcb4238e",
	"continuous/UDT-LP/gainratio":   "4903ca6f218347069a9aa9bfe42c9aa19ab0afb4042260e781bc38890b8daabe",
	"continuous/UDT-GP/entropy":     "f477f42a788f69adab2c25f4b8e5f1ebc049b236fcd4e7397c9fb5cb1900b760",
	"continuous/UDT-GP/gini":        "048f0296334087e797d32e9be5254a05ad80f3b2c6ae6ca2268dc636dcb4238e",
	"continuous/UDT-GP/gainratio":   "4903ca6f218347069a9aa9bfe42c9aa19ab0afb4042260e781bc38890b8daabe",
	"continuous/UDT-ES/entropy":     "f477f42a788f69adab2c25f4b8e5f1ebc049b236fcd4e7397c9fb5cb1900b760",
	"continuous/UDT-ES/gini":        "048f0296334087e797d32e9be5254a05ad80f3b2c6ae6ca2268dc636dcb4238e",
	"continuous/UDT-ES/gainratio":   "4903ca6f218347069a9aa9bfe42c9aa19ab0afb4042260e781bc38890b8daabe",
	"vehicle-w0/UDT/entropy":        "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT/gini":           "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT/gainratio":      "46e731b0de12953abcd381e0c505f4254ec42f471daa4d53243762fb145312a8",
	"vehicle-w0/UDT-BP/entropy":     "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT-BP/gini":        "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT-BP/gainratio":   "46e731b0de12953abcd381e0c505f4254ec42f471daa4d53243762fb145312a8",
	"vehicle-w0/UDT-LP/entropy":     "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT-LP/gini":        "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT-LP/gainratio":   "46e731b0de12953abcd381e0c505f4254ec42f471daa4d53243762fb145312a8",
	"vehicle-w0/UDT-GP/entropy":     "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT-GP/gini":        "d1b7f561135a8050e453000d1974e896f5f02a3a89350b5acded3002c9e51d7b",
	"vehicle-w0/UDT-GP/gainratio":   "46e731b0de12953abcd381e0c505f4254ec42f471daa4d53243762fb145312a8",
	"vehicle-w0/UDT-ES/entropy":     "3ff5a07617bb8661f3ff763fddd1687f3ccfea284689f5fe9f80a253a44f27f2",
	"vehicle-w0/UDT-ES/gini":        "3ff5a07617bb8661f3ff763fddd1687f3ccfea284689f5fe9f80a253a44f27f2",
	"vehicle-w0/UDT-ES/gainratio":   "46e731b0de12953abcd381e0c505f4254ec42f471daa4d53243762fb145312a8",
	"vehicle-w0.1/UDT/entropy":      "caaf245162209a26c0b6087d5510fc15dc75997fc97ab04bd3371e342b23e5b7",
	"vehicle-w0.1/UDT/gini":         "e6ee1123fa0667c6a08e9d56967d301a0514c78af19e283bb7d90a7bbff9c91c",
	"vehicle-w0.1/UDT/gainratio":    "47ffd1cc8f5c59a360eade5e72fe7d8d1092a7d9d9253fc78ce46d9f9d79ea82",
	"vehicle-w0.1/UDT-BP/entropy":   "caaf245162209a26c0b6087d5510fc15dc75997fc97ab04bd3371e342b23e5b7",
	"vehicle-w0.1/UDT-BP/gini":      "e6ee1123fa0667c6a08e9d56967d301a0514c78af19e283bb7d90a7bbff9c91c",
	"vehicle-w0.1/UDT-BP/gainratio": "47ffd1cc8f5c59a360eade5e72fe7d8d1092a7d9d9253fc78ce46d9f9d79ea82",
	"vehicle-w0.1/UDT-LP/entropy":   "caaf245162209a26c0b6087d5510fc15dc75997fc97ab04bd3371e342b23e5b7",
	"vehicle-w0.1/UDT-LP/gini":      "e6ee1123fa0667c6a08e9d56967d301a0514c78af19e283bb7d90a7bbff9c91c",
	"vehicle-w0.1/UDT-LP/gainratio": "47ffd1cc8f5c59a360eade5e72fe7d8d1092a7d9d9253fc78ce46d9f9d79ea82",
	"vehicle-w0.1/UDT-GP/entropy":   "caaf245162209a26c0b6087d5510fc15dc75997fc97ab04bd3371e342b23e5b7",
	"vehicle-w0.1/UDT-GP/gini":      "e6ee1123fa0667c6a08e9d56967d301a0514c78af19e283bb7d90a7bbff9c91c",
	"vehicle-w0.1/UDT-GP/gainratio": "47ffd1cc8f5c59a360eade5e72fe7d8d1092a7d9d9253fc78ce46d9f9d79ea82",
	"vehicle-w0.1/UDT-ES/entropy":   "caaf245162209a26c0b6087d5510fc15dc75997fc97ab04bd3371e342b23e5b7",
	"vehicle-w0.1/UDT-ES/gini":      "e6ee1123fa0667c6a08e9d56967d301a0514c78af19e283bb7d90a7bbff9c91c",
	"vehicle-w0.1/UDT-ES/gainratio": "47ffd1cc8f5c59a360eade5e72fe7d8d1092a7d9d9253fc78ce46d9f9d79ea82",
	"vehicle-w0.1/bagged":           "0951704f520f408d07be77622f2ba321118a7a322e235f192189aa19149c10fe",
	"vehicle-w0.1/boosted":          "7fdc084ecf6f6917593eb5ea46531999ac21e6f14c7983eba2bd676495b3bc4c",
}

// vehiclePoints is the integer-valued Vehicle stand-in: many tuples share
// attribute values, so split search sees heavy ties at every node.
func vehiclePoints(t *testing.T) *udt.Points {
	t.Helper()
	spec, err := uci.ByName("Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := uci.Points(spec, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func injected(t *testing.T, pts *udt.Points, w float64) *udt.Dataset {
	t.Helper()
	ds, err := data.Inject(pts, data.InjectConfig{W: w, S: 12, Model: data.GaussianModel})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTrainedModelDigests trains every strategy under every measure on a
// continuous-pdf dataset and on integer-valued point data at w = 0 and 0.1,
// plus one bagged and one boosted ensemble, serially and again at Workers 4
// and Parallelism 4, and pins the sha256 of each model's JSON.
func TestTrainedModelDigests(t *testing.T) {
	pts := vehiclePoints(t)
	datasets := []struct {
		name string
		ds   *udt.Dataset
	}{
		{"continuous", determinismDataset(t)},
		{"vehicle-w0", injected(t, pts, 0)},
		{"vehicle-w0.1", injected(t, pts, 0.1)},
	}
	type row struct {
		name  string
		train func(workers int) (any, error)
	}
	var rows []row
	for _, d := range datasets {
		for _, st := range []udt.Strategy{udt.StrategyUDT, udt.StrategyBP, udt.StrategyLP, udt.StrategyGP, udt.StrategyES} {
			for _, m := range []udt.Measure{udt.Entropy, udt.Gini, udt.GainRatio} {
				ds, st, m := d.ds, st, m
				rows = append(rows, row{
					name: fmt.Sprintf("%s/%v/%v", d.name, st, m),
					train: func(workers int) (any, error) {
						return udt.Build(ds, udt.Config{Strategy: st, Measure: m, MinWeight: 2, Workers: workers, Parallelism: workers})
					},
				})
			}
		}
	}
	ties := datasets[2].ds
	rows = append(rows,
		row{"vehicle-w0.1/bagged", func(workers int) (any, error) {
			return udt.TrainForest(ties, udt.ForestConfig{
				Trees: 5, Seed: 3, Workers: workers,
				TreeConfig: udt.Config{Strategy: udt.StrategyES, MinWeight: 2, Workers: workers},
			})
		}},
		row{"vehicle-w0.1/boosted", func(workers int) (any, error) {
			return udt.TrainBoosted(ties, udt.BoostConfig{
				Rounds: 5, Workers: workers,
				TreeConfig: udt.Config{Strategy: udt.StrategyGP, MaxDepth: 3, MinWeight: 2, Workers: workers},
			})
		}},
	)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			digest := func(workers int) string {
				m, err := r.train(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				blob, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(blob)
				return hex.EncodeToString(sum[:])
			}
			got := digest(0)
			if par := digest(4); par != got {
				t.Errorf("Workers/Parallelism 4 digest %s, serial %s", par, got)
			}
			if want := trainedDigests[r.name]; got != want {
				t.Errorf("digest %s, pinned %q", got, want)
			}
		})
	}
}

// containerDigests is sha256(binfmt.EncodeForest(model)) per row of
// TestBinaryContainerDigests.
var containerDigests = map[string]string{
	"continuous/tree":      "4fe1526a455ddd7d60ab5dc757620b0630c064f8b19155d623f91afc7f751bd6",
	"continuous/bagged":    "301782a326c899b9e0481189a944d52e3cad61d07f3027e2d1d2565d1335cc9e",
	"continuous/boosted":   "31c395bc72bf1d28d115696958ccb02a1d1102956c490a3e99402018e0314d5b",
	"vehicle-w0.1/tree":    "b5ecd44a14fa142b328d81a8e780252c230bbab9806c939316b5a2a137d9ae11",
	"vehicle-w0.1/bagged":  "d9c4ff82a4266c281589b9238e9382742d0c6d659006b181634775e6facf61fe",
	"vehicle-w0.1/boosted": "bd2dfdcba3895cfcd6d9c9304b738d4b7fd502bcc18d64d2c482990bcc3d07b0",
}

// TestBinaryContainerDigests pins the binary container bytes of a tree, a
// bagged forest whose members see projected attribute subsets, and a boosted
// ensemble, on a continuous-pdf dataset and on the Vehicle stand-in. The
// bytes cover the hash-consed node arena, the member roots, weights, bounds
// and stats, so a change to how models compile or encode moves a digest. A
// container decoded and encoded again must give back its input bytes.
func TestBinaryContainerDigests(t *testing.T) {
	datasets := []struct {
		name  string
		ds    *udt.Dataset
		attrs int // AttrsPerTree of the bagged forest
		depth int // MaxDepth of the boosted members: shallow enough that all 5 rounds are kept
	}{
		{"continuous", determinismDataset(t), 1, 1},
		{"vehicle-w0.1", injected(t, vehiclePoints(t), 0.1), 6, 3},
	}
	for _, d := range datasets {
		models := []struct {
			name  string
			train func() (any, error)
		}{
			{"tree", func() (any, error) {
				return udt.Build(d.ds, udt.Config{MinWeight: 2})
			}},
			{"bagged", func() (any, error) {
				return udt.TrainForest(d.ds, udt.ForestConfig{
					Trees: 5, Seed: 3, AttrsPerTree: d.attrs,
					TreeConfig: udt.Config{Strategy: udt.StrategyES, MinWeight: 2},
				})
			}},
			{"boosted", func() (any, error) {
				return udt.TrainBoosted(d.ds, udt.BoostConfig{
					Rounds:     5,
					TreeConfig: udt.Config{Strategy: udt.StrategyGP, MaxDepth: d.depth, MinWeight: 2},
				})
			}},
		}
		for _, m := range models {
			name := d.name + "/" + m.name
			t.Run(name, func(t *testing.T) {
				model, err := m.train()
				if err != nil {
					t.Fatal(err)
				}
				img := encodeBinaryModel(t, model)
				sum := sha256.Sum256(img)
				if got, want := hex.EncodeToString(sum[:]), containerDigests[name]; got != want {
					t.Errorf("digest %s (%d bytes), pinned %q", got, len(img), want)
				}
				c, err := binfmt.DecodeBytes(img)
				if err != nil {
					t.Fatal(err)
				}
				var again bytes.Buffer
				if err := binfmt.EncodeForest(&again, c.Forest); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), img) {
					t.Fatalf("decode and encode again gave %d bytes that differ from the %d input bytes", again.Len(), len(img))
				}
			})
		}
	}
}
