package binfmt

import (
	"bytes"
	"testing"

	"udt/internal/boost"
	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
	"udt/internal/pdf"
)

// FuzzDecodeBinary: arbitrary bytes through the container decoder must
// either produce a servable model or an error — never a panic, an index
// out of range, or a read past the image. When decoding succeeds the
// model must actually serve: the fuzzer classifies an all-missing probe
// tuple, which walks every reachable node of every member (missing
// values descend all children), so termination depends on exactly the
// child<parent acyclicity invariant the structural validation pass
// claims to have proven.
//
// Seeds cover the corpus the decoder was hardened against by hand in
// TestDecodeRejectsCorruption — valid tree/bagged/projected/boosted
// images plus truncated, bit-flipped, misaligned, and oversized-section
// mutants, and a boosted image with zeroed upper bounds or a wrong reach —
// and the checked-in corpus under testdata/fuzz adds the
// trivial prefixes (empty, bare magic, zeroed header). CI runs a short
// `-fuzz=FuzzDecodeBinary -fuzztime=10s` smoke to probe beyond them.
func FuzzDecodeBinary(f *testing.F) {
	ds := testDataset(17, 160)
	tree, err := core.Build(ds, core.Config{MinWeight: 1})
	if err != nil {
		f.Fatal(err)
	}
	tf, err := forest.FromTree(tree)
	if err != nil {
		f.Fatal(err)
	}
	var treeImg bytes.Buffer
	if err := EncodeForest(&treeImg, tf); err != nil {
		f.Fatal(err)
	}

	forests := []*forest.Forest{}
	for _, cfg := range []forest.Config{
		{Trees: 3, Seed: 4, TreeConfig: core.Config{MinWeight: 1}},
		{Trees: 3, Seed: 4, AttrsPerTree: 2, TreeConfig: core.Config{MinWeight: 1}},
	} {
		fr, err := forest.Train(ds, cfg)
		if err != nil {
			f.Fatal(err)
		}
		forests = append(forests, fr)
	}
	boosted, err := boost.Train(ds, boost.Config{Rounds: 3, TreeConfig: core.Config{MinWeight: 1}})
	if err != nil {
		f.Fatal(err)
	}
	forests = append(forests, boosted)

	images := [][]byte{append([]byte(nil), treeImg.Bytes()...)}
	for _, fr := range forests {
		var buf bytes.Buffer
		if err := EncodeForest(&buf, fr); err != nil {
			f.Fatal(err)
		}
		images = append(images, append([]byte(nil), buf.Bytes()...))
	}

	for _, img := range images {
		f.Add(img)
		// Truncations: inside the magic, the header, the section table,
		// and mid-payload.
		for _, cut := range []int{1, len(Magic), len(Magic) + 8, 71, 72, 100, len(img) / 2, len(img) - 1} {
			if cut < len(img) {
				f.Add(append([]byte(nil), img[:cut]...))
			}
		}
	}
	// Bit flips across the preamble (magic + header + first table entries)
	// and deeper mutants on one representative image: a misaligned section
	// offset and an oversized section size.
	base := images[len(images)-1]
	for off := 0; off < 72+2*24 && off < len(base); off += 5 {
		mut := append([]byte(nil), base...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	if entry := 72 + 1*24; entry+17 < len(base) {
		mut := append([]byte(nil), base...)
		mut[entry+8] |= 0x01 // offset no longer 64-byte aligned
		f.Add(mut)
		mut = append([]byte(nil), base...)
		mut[entry+16] = 0xFF // section size far beyond the image
		mut[entry+17] = 0xFF
		f.Add(mut)
	}

	// Containers whose stored bounds or reach disagree with their arena.
	for _, m := range boundMutants(f) {
		f.Add(m.img)
	}

	f.Fuzz(func(t *testing.T, img []byte) {
		c, err := DecodeBytes(img)
		if err != nil {
			if c != nil {
				t.Fatalf("decode returned both a container and error %v", err)
			}
			return
		}
		if c == nil {
			t.Fatal("decode returned nil container and nil error")
		}
		if c.Mapped() {
			t.Fatal("DecodeBytes produced a mapped container")
		}
		// The image decoded; the model must serve. An all-missing tuple
		// forces the widest possible descent through every member.
		if c.Forest == nil {
			t.Fatal("decoded container holds no model")
		}
		classes, num, cat := c.Forest.Schema()
		if dist := c.Forest.Classify(missingTuple(len(num), len(cat))); len(dist) != len(classes) {
			t.Fatalf("probe classification returned %d masses for %d classes", len(dist), len(classes))
		}
	})
}

// missingTuple builds a tuple with every attribute missing for the given
// schema widths: nil pdfs and empty categorical distributions.
func missingTuple(num, cat int) *data.Tuple {
	return &data.Tuple{
		Num: make([]*pdf.PDF, num),
		Cat: make([]data.CatDist, cat),
	}
}
