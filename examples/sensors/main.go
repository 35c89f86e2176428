// Sensors: the repeated-measurements scenario from the paper's
// introduction. A patient's temperature and heart rate are sampled many
// times a day; instead of averaging the readings away, the full empirical
// distribution of each vital sign becomes the attribute value
// (udt.PDFFromSamples), and the Distribution-based tree exploits it.
//
// The example compares AVG and UDT accuracy on held-out patients — the
// paper's central claim (§4.3) in a runnable program.
//
//	go run ./examples/sensors
package main

import (
	"fmt"
	"log"
	"math/rand"

	"udt"
)

// patientReadings simulates a day of vitals for one patient. Condition 1
// ("unstable") patients have the same *mean* vitals as healthy ones but
// much larger swings — exactly the situation where averaging destroys the
// signal.
func patientReadings(class int, rng *rand.Rand) (temps, rates []float64) {
	nT := 8 + rng.Intn(8)   // temperature taken 8-15 times
	nR := 20 + rng.Intn(20) // heart rate sampled 20-39 times
	baseT := 36.8 + rng.NormFloat64()*0.1
	baseR := 72 + rng.NormFloat64()*4
	swingT, swingR := 0.15, 3.0
	if class == 1 {
		swingT, swingR = 0.75, 14.0 // unstable: same mean, larger variance
	}
	for i := 0; i < nT; i++ {
		temps = append(temps, baseT+rng.NormFloat64()*swingT)
	}
	for i := 0; i < nR; i++ {
		rates = append(rates, baseR+rng.NormFloat64()*swingR)
	}
	return temps, rates
}

func makeDataset(n int, rng *rand.Rand) *udt.Dataset {
	ds := udt.NewDataset("vitals", 2, []string{"stable", "unstable"})
	ds.NumAttrs[0].Name = "temperature"
	ds.NumAttrs[1].Name = "heart_rate"
	for i := 0; i < n; i++ {
		class := i % 2
		temps, rates := patientReadings(class, rng)
		pT, err := udt.PDFFromSamples(temps)
		if err != nil {
			log.Fatal(err)
		}
		pR, err := udt.PDFFromSamples(rates)
		if err != nil {
			log.Fatal(err)
		}
		ds.Add(class, pT, pR)
	}
	return ds
}

func main() {
	rng := rand.New(rand.NewSource(7))
	train := makeDataset(200, rng)
	test := makeDataset(100, rng)

	cfg := udt.Config{Strategy: udt.StrategyES, PostPrune: true}

	avgRes, err := udt.TrainTest(train, test, udt.AveragingTrainer(cfg))
	if err != nil {
		log.Fatal(err)
	}
	udtRes, err := udt.TrainTest(train, test, udt.TreeTrainer(cfg))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("classifying patients as stable/unstable from repeated vital-sign readings")
	fmt.Printf("  Averaging           : %.1f%% accuracy (means only — the swings vanish)\n", avgRes.Accuracy*100)
	fmt.Printf("  Distribution-based  : %.1f%% accuracy (full reading distributions)\n", udtRes.Accuracy*100)
	fmt.Printf("  UDT search work     : %d entropy calculations (strategy %v)\n",
		udtRes.Search.EntropyCalcs(), udt.StrategyES)

	// Show one patient's classification as a distribution.
	tu := test.Tuples[1]
	tree, err := udt.Build(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := tree.Classify(tu)
	fmt.Printf("\nexample patient (true %s): P(stable)=%.3f P(unstable)=%.3f\n",
		train.Classes[tu.Class], p[0], p[1])
}
