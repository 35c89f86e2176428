// Speaker: a JapaneseVowel-style speaker-identification task (§4.3 of the
// paper). Each utterance yields 7-29 samples of every LPC cepstral
// coefficient over time; the samples of each coefficient form the pdf of
// that attribute. The task is to identify which of nine speakers produced
// an unseen utterance.
//
//	go run ./examples/speaker
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"udt"
)

const (
	speakers = 9
	coeffs   = 12
)

// speakerVoice is a speaker's characteristic profile: a mean level and a
// frame-to-frame variability per coefficient. Two speakers can share
// similar mean coefficients yet differ strongly in how much each
// coefficient fluctuates across frames — a signature that survives in the
// pdf but is destroyed by averaging.
type speakerVoice struct {
	level  [coeffs]float64
	spread [coeffs]float64
}

func newVoices(rng *rand.Rand) []speakerVoice {
	voices := make([]speakerVoice, speakers)
	for s := range voices {
		for j := 0; j < coeffs; j++ {
			voices[s].level[j] = rng.NormFloat64() * 0.45
			voices[s].spread[j] = 0.15 + rng.Float64()*0.85
		}
	}
	return voices
}

// utterance simulates one vowel utterance: each coefficient drifts around
// the speaker's profile over the 7-29 analysis frames.
func utterance(v speakerVoice, rng *rand.Rand) []*udt.PDF {
	frames := 7 + rng.Intn(23)
	pdfs := make([]*udt.PDF, coeffs)
	for j := 0; j < coeffs; j++ {
		obs := make([]float64, frames)
		drift := rng.NormFloat64() * 0.25 // per-utterance offset
		for f := range obs {
			obs[f] = v.level[j] + drift + rng.NormFloat64()*v.spread[j]
		}
		p, err := udt.PDFFromSamples(obs)
		if err != nil {
			log.Fatal(err)
		}
		pdfs[j] = p
	}
	return pdfs
}

func makeDataset(name string, n int, voices []speakerVoice, rng *rand.Rand) *udt.Dataset {
	classes := make([]string, speakers)
	for s := range classes {
		classes[s] = fmt.Sprintf("speaker-%d", s+1)
	}
	ds := udt.NewDataset(name, coeffs, classes)
	for j := 0; j < coeffs; j++ {
		ds.NumAttrs[j].Name = fmt.Sprintf("LPC%d", j+1)
	}
	for i := 0; i < n; i++ {
		s := i % speakers
		ds.Add(s, utterance(voices[s], rng)...)
	}
	return ds
}

func main() {
	rng := rand.New(rand.NewSource(99))
	voices := newVoices(rng)
	train := makeDataset("utterances", 270, voices, rng)
	test := makeDataset("utterances-test", 370, voices, rng)

	cfg := udt.Config{Strategy: udt.StrategyES, PostPrune: true}

	avgRes, err := udt.TrainTest(train, test, udt.AveragingTrainer(cfg))
	if err != nil {
		log.Fatal(err)
	}
	udtRes, err := udt.TrainTest(train, test, udt.TreeTrainer(cfg))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("speaker identification, %d train / %d test utterances, %d speakers\n",
		train.Len(), test.Len(), speakers)
	fmt.Printf("  Averaging          : %.2f%%\n", avgRes.Accuracy*100)
	fmt.Printf("  Distribution-based : %.2f%%\n", udtRes.Accuracy*100)

	// Rank the speakers for one test utterance — the probabilistic
	// classification result of §3.2.
	tree, err := udt.Build(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tu := test.Tuples[0]
	dist := tree.Classify(tu)
	type cand struct {
		speaker string
		p       float64
	}
	cands := make([]cand, len(dist))
	for c, p := range dist {
		cands[c] = cand{train.Classes[c], p}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].p > cands[j].p })
	fmt.Printf("\ntop candidates for one utterance (true %s):\n", train.Classes[tu.Class])
	for _, c := range cands[:3] {
		fmt.Printf("  %-10s %.3f\n", c.speaker, c.p)
	}
}
