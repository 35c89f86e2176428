//go:build ignore

// Command gen regenerates the cross-surface NDJSON golden fixtures in this
// directory:
//
//	go run testdata/stream/gen.go
//
// It trains a deterministic single tree, writes the model document
// (model.json), the same test tuples in both transports — the CSV
// interchange format udtree reads (input.csv) and the JSON wire format
// udtserve's /classify/stream reads (input.ndjson) — and the expected
// classification stream (golden.ndjson). Both cmd/udtree (predict -format
// ndjson) and cmd/udtserve (/classify/stream) pin their output to
// golden.ndjson, which is what proves the CLI and the server speak the same
// stream protocol byte for byte.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"udt"
	"udt/internal/modelio"
)

func main() {
	dir := filepath.Join("testdata", "stream")

	// A deterministic separable training set: two numeric attributes, three
	// classes at x ≈ 0, 10, 20.
	train := udt.NewDataset("golden-train", 2, []string{"lo", "mid", "hi"})
	for i := 0; i < 30; i++ {
		c := i % 3
		base := float64(c * 10)
		off := float64(i%5) / 5
		p1, err := udt.NewPDF(
			[]float64{base + off, base + 1 + off, base + 2 + off},
			[]float64{1, 2, 1})
		check(err)
		train.Add(c, p1, udt.PointPDF(base+off/2))
	}
	tree, err := udt.Build(train, udt.Config{MinWeight: 2})
	check(err)
	blob, err := json.MarshalIndent(tree, "", "  ")
	check(err)
	check(os.WriteFile(filepath.Join(dir, "model.json"), blob, 0o644))

	// Test tuples exercising every wire value style that the CSV transport
	// can also carry: point values, equal-mass sample lists, and explicit
	// weighted pdfs. CSV rows and NDJSON lines are index-aligned.
	type fixture struct {
		csvCells [2]string // input.csv numeric cells
		wire     string    // input.ndjson line
		class    int       // label for the CSV class column
	}
	fixtures := []fixture{
		{[2]string{"1.5", "0.2"}, `{"num": [1.5, 0.2]}`, 0},
		{[2]string{"10;11;12", "10.1"}, `{"num": [[10, 11, 12], 10.1]}`, 1},
		{[2]string{"20@1;21@2;22@1", "20.3"}, `{"num": [{"xs": [20, 21, 22], "masses": [1, 2, 1]}, 20.3]}`, 2},
		// Straddlers: pdf mass on both sides of the inter-cluster splits on
		// both attributes, so the answered distributions are fractional and
		// the golden file pins float formatting, not just argmax labels.
		{[2]string{"2;11", "0.3;10.2"}, `{"num": [[2, 11], [0.3, 10.2]]}`, 1},
		{[2]string{"1@3;21@1", "0.1@3;20.2@1"}, `{"num": [{"xs": [1, 21], "masses": [3, 1]}, {"xs": [0.1, 20.2], "masses": [3, 1]}]}`, 0},
		{[2]string{"11;21;22", "10.3;20.1;20.3"}, `{"num": [[11, 21, 22], [10.3, 20.1, 20.3]]}`, 2},
	}

	var csvBuf, ndjsonBuf bytes.Buffer
	fmt.Fprintln(&csvBuf, "x,y,class")
	for _, f := range fixtures {
		fmt.Fprintf(&csvBuf, "%s,%s,%s\n", f.csvCells[0], f.csvCells[1], train.Classes[f.class])
		fmt.Fprintln(&ndjsonBuf, f.wire)
	}
	check(os.WriteFile(filepath.Join(dir, "input.csv"), csvBuf.Bytes(), 0o644))
	check(os.WriteFile(filepath.Join(dir, "input.ndjson"), ndjsonBuf.Bytes(), 0o644))

	// The golden stream: decode each wire line exactly as the server does
	// and classify through the compiled engine.
	mdl, err := modelio.Decode(blob)
	check(err)
	classes, numAttrs, catAttrs := mdl.Schema()
	var golden bytes.Buffer
	enc := json.NewEncoder(&golden)
	for i, f := range fixtures {
		tu, err := modelio.DecodeWireTuple([]byte(f.wire), numAttrs, catAttrs)
		check(err)
		check(enc.Encode(modelio.NewStreamResult(i+1, classes, mdl.Classify(tu))))
	}
	check(os.WriteFile(filepath.Join(dir, "golden.ndjson"), golden.Bytes(), 0o644))
	fmt.Printf("wrote %d fixtures to %s\n", len(fixtures), dir)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
