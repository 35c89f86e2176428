// Survey: the range-answer scenario from the paper's introduction ("How
// many hours of TV do you watch each week?" — "6-8 hours"), mixing a
// numeric attribute whose values are ranges (uniform pdfs, the
// quantisation model), a numeric attribute with exact answers, and an
// uncertain *categorical* attribute (§7.2): the respondent's favourite
// content category inferred from viewing logs as a distribution.
//
//	go run ./examples/survey
package main

import (
	"fmt"
	"log"
	"math/rand"

	"udt"
)

func main() {
	rng := rand.New(rand.NewSource(17))

	ds := udt.NewDataset("survey", 2, []string{"casual", "enthusiast"})
	ds.NumAttrs[0].Name = "tv_hours"
	ds.NumAttrs[1].Name = "age"
	ds.CatAttrs = []udt.Attribute{{
		Name:   "category",
		Domain: []string{"news", "sports", "drama"},
	}}

	addRespondent := func(class int, hours, age float64, catMix udt.CatDist) {
		// Respondents answer the hours question with a 2-hour bracket:
		// a uniform pdf over [floor2(h), floor2(h)+2].
		lo := float64(int(hours/2)) * 2
		hPdf, err := udt.UniformPDF(lo, lo+2, 20)
		if err != nil {
			log.Fatal(err)
		}
		tu := ds.Add(class, hPdf, udt.PointPDF(age))
		tu.Cat = []udt.CatDist{catMix}
	}

	for i := 0; i < 150; i++ {
		if i%2 == 0 {
			// Casual: few hours, mostly news; age anything.
			addRespondent(0,
				2+rng.Float64()*6,
				20+rng.Float64()*50,
				udt.CatDist{0.6 + rng.Float64()*0.3, 0.2, 0.1})
		} else {
			// Enthusiast: many hours, drama/sports-leaning.
			addRespondent(1,
				9+rng.Float64()*14,
				20+rng.Float64()*50,
				udt.CatDist{0.1, 0.3 + rng.Float64()*0.2, 0.5})
		}
	}
	for _, tu := range ds.Tuples {
		if err := tu.Cat[0].Normalize(); err != nil {
			log.Fatal(err)
		}
	}

	tree, err := udt.Build(ds, udt.Config{Strategy: udt.StrategyGP, PostPrune: true})
	if err != nil {
		log.Fatal(err)
	}
	model, err := udt.TreeModel(tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("survey classifier: %s, self-accuracy %.1f%%\n\n",
		tree, udt.Accuracy(model, ds)*100)

	// A respondent who answered "8-10 hours", age 35, watching logs split
	// 50/30/20 across categories.
	hours, _ := udt.UniformPDF(8, 10, 20)
	resp := &udt.Tuple{
		Num:    []*udt.PDF{hours, udt.PointPDF(35)},
		Cat:    []udt.CatDist{{0.5, 0.3, 0.2}},
		Weight: 1,
	}
	dist := tree.Classify(resp)
	fmt.Printf("respondent \"8-10 hours\"/35y/news-leaning: P(casual)=%.3f P(enthusiast)=%.3f\n\n",
		dist[0], dist[1])

	fmt.Println("rules:")
	for _, r := range tree.Rules() {
		fmt.Println(" ", r)
	}
}
