package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"udt/internal/modelio"
)

// TestPredictEarlyExit: -early-exit must print the same classes as full
// evaluation, one members-evaluated count per tuple, and a mean-members
// summary — over a boosted model, and over a single tree, which is a
// one-member forest and so always evaluates exactly its one member.
func TestPredictEarlyExit(t *testing.T) {
	trainPath, testPath, modelPath := writeFixtures(t)
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", modelPath, "-boost", "-rounds", "5", "-maxdepth", "2", "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}

	// SAMME may stop before the round budget (a perfect weak learner ends
	// the run), so read the member count off the trained model.
	mdl, err := modelio.Load(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	assertEarlyExit(t, modelPath, testPath, mdl.StageCount())

	treePath := strings.TrimSuffix(modelPath, ".json") + "-tree.json"
	if _, err := capture(t, func() error {
		return train([]string{"-in", trainPath, "-out", treePath, "-minweight", "1"})
	}); err != nil {
		t.Fatal(err)
	}
	assertEarlyExit(t, treePath, testPath, 1)
}

// assertEarlyExit checks predict -early-exit against full evaluation of the
// same model, in both output formats: identical classes, a members count in
// [1, stages] per tuple, a summary line in the human format only, and the
// udtserve early-exit stream protocol (no distributions) in ndjson.
func assertEarlyExit(t *testing.T, modelPath, testPath string, stages int) {
	t.Helper()
	full, err := capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	early, err := capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath, "-early-exit"})
	})
	if err != nil {
		t.Fatalf("predict -early-exit: %v", err)
	}

	fullLines := strings.Split(strings.TrimSpace(full), "\n")
	earlyLines := strings.Split(strings.TrimSpace(early), "\n")
	if len(earlyLines) != len(fullLines)+1 {
		t.Fatalf("early exit printed %d lines, want %d tuples + summary:\n%s", len(earlyLines), len(fullLines), early)
	}
	for i, fl := range fullLines {
		// "tuple N: class" prefixes must agree; the suffixes differ (dist vs
		// members).
		wantPrefix := strings.SplitN(fl, "  ", 2)[0]
		if !strings.HasPrefix(earlyLines[i], wantPrefix+" (") {
			t.Fatalf("line %d: early %q does not match full %q", i+1, earlyLines[i], wantPrefix)
		}
		if !strings.Contains(earlyLines[i], fmt.Sprintf("/%d members)", stages)) {
			t.Fatalf("line %d: %q carries no members count", i+1, earlyLines[i])
		}
	}
	summary := earlyLines[len(earlyLines)-1]
	if !strings.HasPrefix(summary, "early exit: mean ") || !strings.Contains(summary, fmt.Sprintf("of %d members", stages)) {
		t.Fatalf("summary line = %q", summary)
	}

	// The ndjson format must emit the udtserve early-exit stream protocol
	// with no summary line, its classes those of full evaluation.
	fullND, err := capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath, "-format", "ndjson"})
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := capture(t, func() error {
		return predict([]string{"-model", modelPath, "-in", testPath, "-format", "ndjson", "-early-exit"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bufio.NewScanner(strings.NewReader(fullND))
	sc := bufio.NewScanner(strings.NewReader(nd))
	n := 0
	for sc.Scan() {
		n++
		var r, w modelio.StreamResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("ndjson line %d: %v (%q)", n, err, sc.Text())
		}
		if !want.Scan() {
			t.Fatalf("ndjson line %d has no full-evaluation counterpart", n)
		}
		if err := json.Unmarshal(want.Bytes(), &w); err != nil {
			t.Fatal(err)
		}
		if r.Line != n || r.Class != w.Class || r.Error != "" {
			t.Fatalf("ndjson line %d = %+v, full evaluation says %q", n, r, w.Class)
		}
		if r.MembersEvaluated < 1 || r.MembersEvaluated > stages {
			t.Fatalf("ndjson line %d: membersEvaluated = %d", n, r.MembersEvaluated)
		}
		if r.Dist != nil {
			t.Fatalf("ndjson line %d carries a distribution", n)
		}
	}
	if n != len(fullLines) {
		t.Fatalf("ndjson produced %d lines, want %d", n, len(fullLines))
	}
}
