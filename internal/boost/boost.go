// Package boost implements AdaBoost-style weighted ensembles (SAMME, the
// multi-class generalisation of AdaBoost.M1) over uncertain decision trees.
//
// Boosting is the paper-native ensemble for UDT: every tuple already carries
// a fractional weight — the w of §3.2 that fractional tuples split across
// branches during construction — so a boosting round trains on reweighted
// tuples simply by handing core.Build a dataset whose tuple weights ARE the
// current boosting weights. No weighted-resampling approximation is needed,
// and because tree construction and compiled batch prediction are both
// deterministic at any Workers value, the whole boosted ensemble is
// bit-for-bit reproducible regardless of parallelism.
//
// Each round r builds a member on the weighted view, measures its weighted
// training error err_r, converts it into the SAMME vote weight
//
//	alpha_r = LearningRate * (ln((1-err_r)/err_r) + ln(K-1))
//
// (K the number of classes; for K = 2 this is exactly AdaBoost.M1), then
// multiplies the weight of every misclassified tuple by exp(alpha_r) and
// renormalises. Training early-stops when a round's error reaches 0 (the
// member is kept — repeating it would rebuild the same tree forever) or
// crosses the no-better-than-chance bound 1 - 1/K (the member is discarded).
//
// The result is a *forest.Forest of kind KindBoosted whose members vote
// with their alphas, so everything downstream of the container format —
// serialisation, model loading, serving, hot reload — handles boosted and
// bagged ensembles identically.
package boost

import (
	"errors"
	"fmt"
	"math"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/obs"
)

// Config controls boosted training.
type Config struct {
	Rounds       int         // maximum boosting rounds (default 10)
	LearningRate float64     // shrinkage applied to every vote weight, > 0 (default 1)
	Workers      int         // concurrent per-round training-set prediction (<= 1 means serial); never changes the result
	TreeConfig   core.Config // member tree construction; shallow members (MaxDepth 2-4) boost best
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1
	}
	return c
}

// WeakMemberConfig derives the recommended weak-member construction from a
// base tree configuration: depth capped at 3 (unless the base caps it
// tighter) and post-pruning off — pruning optimises the unweighted error,
// which is no longer the objective once tuples carry boosting weights, and
// a member strong enough to fit the training set perfectly ends boosting
// after one round. It is the single source of the weak-learner policy that
// both "udtree train -boost" and "udtbench -exp boost" apply; callers that
// want stronger members pass their own TreeConfig untouched.
func WeakMemberConfig(base core.Config) core.Config {
	cfg := base
	cfg.PostPrune = false
	if cfg.MaxDepth == 0 || cfg.MaxDepth > 3 {
		cfg.MaxDepth = 3
	}
	return cfg
}

// errFloor stands in for a zero weighted error when deriving the final
// member's vote weight: a perfect member gets the alpha of an almost-perfect
// one (≈ 23 + ln(K-1) at LearningRate 1) instead of an infinity that would
// poison the weighted average.
const errFloor = 1e-10

// weightFloor keeps tuple weights positive: a tuple every member classifies
// correctly shrinks geometrically under renormalisation, and a weight that
// underflowed to zero would fail dataset validation on the next round.
const weightFloor = 1e-12

// Train builds a boosted ensemble on the uncertain dataset. The returned
// forest has kind forest.KindBoosted and classifies by alpha-weighted
// distribution averaging. Training is deterministic: the same dataset and
// configuration produce a byte-identical serialised model at any Workers
// value.
func Train(ds *data.Dataset, cfg Config) (*forest.Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("boost: cannot train on an empty dataset")
	}
	k := len(ds.Classes)
	if k < 2 {
		return nil, errors.New("boost: boosting needs at least two classes")
	}
	cfg = cfg.withDefaults()
	if !(cfg.LearningRate > 0) || math.IsInf(cfg.LearningRate, 0) {
		return nil, fmt.Errorf("boost: LearningRate %v is not a positive finite number", cfg.LearningRate)
	}

	// One set of shallow clones is reused across rounds: only the Weight
	// field changes, and neither tree construction nor the finished trees
	// retain the tuples, so mutating the weights between rounds is safe.
	clones := make([]*data.Tuple, n)
	for i, tu := range ds.Tuples {
		clones[i] = tu.CloneShallow()
	}
	weighted := &data.Dataset{
		Name:     ds.Name,
		NumAttrs: ds.NumAttrs,
		CatAttrs: ds.CatAttrs,
		Classes:  ds.Classes,
		Tuples:   clones,
	}

	// Boosting weights, kept normalised to sum 1. The training view scales
	// them by n so the mean tuple weight stays 1 and MinWeight thresholds
	// keep their single-tree meaning.
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}

	chance := 1 - 1/float64(k) // SAMME's no-better-than-chance error bound
	hook := cfg.TreeConfig.Progress
	var members []forest.WeightedTree
	for round := 0; round < cfg.Rounds; round++ {
		for i := range clones {
			clones[i].Weight = w[i] * float64(n)
		}
		tree, err := core.Build(weighted, cfg.TreeConfig)
		if err != nil {
			return nil, fmt.Errorf("boost: round %d: %w", round+1, err)
		}
		compiled, err := tree.Compile()
		if err != nil {
			return nil, fmt.Errorf("boost: round %d: %w", round+1, err)
		}
		// Weighted training error over the ORIGINAL tuples: classification
		// must not see the boosting weights, only construction does.
		preds := compiled.PredictBatch(ds.Tuples, cfg.Workers)
		errW := weightedError(w, preds, ds.Tuples)
		if errW >= chance {
			hook.Round(obs.BoostRound{Round: round + 1, Error: errW, Kept: false})
			if len(members) == 0 {
				return nil, fmt.Errorf(
					"boost: first round weighted error %.4f is no better than chance (%.4f); weaken the members (e.g. lower TreeConfig.MaxDepth) or check the data",
					errW, chance)
			}
			break // the round learned nothing; discard it and stop
		}
		if errW < errFloor {
			errW = errFloor
			a := alpha(cfg.LearningRate, errW, k)
			members = append(members, forest.WeightedTree{Tree: tree, Weight: a})
			hook.Round(obs.BoostRound{Round: round + 1, Error: errW, Alpha: a, Kept: true})
			break // a perfect member; further rounds would rebuild it forever
		}
		a := alpha(cfg.LearningRate, errW, k)
		if a <= 0 {
			// errW can sit so close to the chance bound that the log rounds
			// to zero; a zero vote weight is useless and invalid, so treat it
			// like a chance-level round.
			hook.Round(obs.BoostRound{Round: round + 1, Error: errW, Alpha: a, Kept: false})
			if len(members) == 0 {
				return nil, fmt.Errorf("boost: first round weighted error %.4f is indistinguishable from chance", errW)
			}
			break
		}
		members = append(members, forest.WeightedTree{Tree: tree, Weight: a})
		hook.Round(obs.BoostRound{Round: round + 1, Error: errW, Alpha: a, Kept: true})

		// Reweight: misclassified tuples up by exp(alpha), then renormalise
		// (which moves the correctly classified ones down).
		up := math.Exp(a)
		total := 0.0
		for i, tu := range ds.Tuples {
			if preds[i] != tu.Class {
				w[i] *= up
			}
			total += w[i]
		}
		for i := range w {
			w[i] /= total
			if w[i] < weightFloor {
				w[i] = weightFloor
			}
		}
	}
	return forest.FromTrees(members, forest.KindBoosted)
}

// alpha converts a round's weighted error into its SAMME vote weight.
func alpha(learningRate, errW float64, classes int) float64 {
	return learningRate * (math.Log((1-errW)/errW) + math.Log(float64(classes-1)))
}

// weightedError sums the boosting weight of the misclassified tuples,
// normalised by the total weight (which is 1 up to the weight floor).
func weightedError(w []float64, preds []int, tuples []*data.Tuple) float64 {
	mis, total := 0.0, 0.0
	for i, tu := range tuples {
		total += w[i]
		if preds[i] != tu.Class {
			mis += w[i]
		}
	}
	if total <= 0 {
		return 0
	}
	return mis / total
}
