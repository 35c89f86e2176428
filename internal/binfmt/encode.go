package binfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"udt/internal/forest"
)

// The encoder writes the forest's arena as it is: every model compiles its
// members into one hash-consed arena (core.Interner), so there is nothing to
// intern here. Everything is deterministic — the arena is a pure function of
// the model, the schema JSON marshals deterministically, and padding is
// zeroed — so the same model always produces byte-identical container files.

// schemaJSON is the eagerly-parsed schema section, reusing the interchange
// formats' attribute representation.
type schemaJSON struct {
	Classes  []string     `json:"classes"`
	NumAttrs []schemaAttr `json:"numAttrs"`
	CatAttrs []schemaAttr `json:"catAttrs,omitempty"`
}

type schemaAttr struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain,omitempty"`
}

// EncodeForest writes the model as a binary container; its kind picks the
// header kind, so a KindTree forest writes a tree container.
func EncodeForest(w io.Writer, f *forest.Forest) error {
	mk := slices.Index(kindNames[:], f.Kind())
	if mk < 0 {
		return fmt.Errorf("binfmt: unknown ensemble kind %q", f.Kind())
	}
	a, members := f.Arena()
	if a == nil {
		return fmt.Errorf("binfmt: model has no members")
	}
	classes, numAttrs, catAttrs := f.Schema()
	nc := len(classes)
	engines := f.Members()
	roots := make([]int32, len(members))
	weights := make([]float64, len(members))
	ub := make([]float64, 0, len(members)*nc)
	stats := make([]uint64, 0, len(members)*statsWords)
	var idxPayload []byte
	for mi, m := range members {
		roots[mi] = m.Root
		weights[mi] = m.Weight
		c := engines[mi].Compiled
		ub = append(ub, c.ClassUpperBounds()...)
		var flags uint64
		if m.NumIdx != nil || m.CatIdx != nil {
			flags |= flagHasIdx
			idxPayload = binary.LittleEndian.AppendUint32(idxPayload, uint32(len(m.NumIdx)))
			idxPayload = binary.LittleEndian.AppendUint32(idxPayload, uint32(len(m.CatIdx)))
			for _, j := range m.NumIdx {
				idxPayload = binary.LittleEndian.AppendUint32(idxPayload, uint32(j))
			}
			for _, j := range m.CatIdx {
				idxPayload = binary.LittleEndian.AppendUint32(idxPayload, uint32(j))
			}
		}
		stats = append(stats,
			uint64(m.Stats.Nodes), uint64(m.Stats.Leaves), uint64(m.Stats.Depth), flags, uint64(c.Reach()))
	}

	schema := schemaJSON{Classes: classes}
	for _, at := range numAttrs {
		schema.NumAttrs = append(schema.NumAttrs, schemaAttr{Name: at.Name})
	}
	for _, at := range catAttrs {
		schema.CatAttrs = append(schema.CatAttrs, schemaAttr{Name: at.Name, Domain: at.Domain})
	}
	schemaBytes, err := json.Marshal(schema)
	if err != nil {
		return fmt.Errorf("binfmt: marshal schema: %w", err)
	}

	sections := []struct {
		id      uint32
		payload []byte
	}{
		{schemaSection, schemaBytes},
		{kindSection, a.Kind},
		{attrSection, bytesInt32(a.Attr)},
		{splitSection, bytesFloat64(a.Split)},
		{startSection, bytesInt32(a.Start)},
		{childSection, bytesInt32(a.Child)},
		{wSection, bytesFloat64(a.W)},
		{distSection, bytesFloat64(a.Dist)},
		{rootsSection, bytesInt32(roots)},
		{weightsSection, bytesFloat64(weights)},
		{ubSection, bytesFloat64(ub)},
		{statsSection, bytesUint64(stats)},
	}
	if idxPayload != nil {
		sections = append(sections, struct {
			id      uint32
			payload []byte
		}{idxSection, idxPayload})
	}
	if oob := f.OOB; oob.Evaluated > 0 {
		var ob []byte
		ob = binary.LittleEndian.AppendUint64(ob, math.Float64bits(oob.Accuracy))
		ob = binary.LittleEndian.AppendUint64(ob, math.Float64bits(oob.Brier))
		ob = binary.LittleEndian.AppendUint64(ob, uint64(oob.Evaluated))
		sections = append(sections, struct {
			id      uint32
			payload []byte
		}{oobSection, ob})
	}

	// Layout: every payload starts at the next 64-byte boundary after the
	// section table (or the previous payload).
	offs := make([]off64, len(sections))
	cursor := align(tableEnd(len(sections)))
	for i, s := range sections {
		offs[i] = cursor
		cursor = align(advance(cursor, off64(len(s.payload))))
	}
	fileSize := advance(offs[len(offs)-1], off64(len(sections[len(sections)-1].payload)))

	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:], headerVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(mk))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(nc))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(numAttrs)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(catAttrs)))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(members)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(a.Len()))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(a.Child)))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(fileSize))

	out := newCountingWriter(w)
	out.write([]byte(Magic))
	out.write(hdr)
	entry := make([]byte, sectionEntrySize)
	for i, s := range sections {
		binary.LittleEndian.PutUint32(entry[0:], s.id)
		binary.LittleEndian.PutUint32(entry[4:], 0)
		binary.LittleEndian.PutUint64(entry[8:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(entry[16:], uint64(len(s.payload)))
		out.write(entry)
	}
	for i, s := range sections {
		out.padTo(offs[i])
		out.write(s.payload)
	}
	if out.err != nil {
		return fmt.Errorf("binfmt: write container: %w", out.err)
	}
	if out.off != fileSize {
		return fmt.Errorf("binfmt: wrote %d bytes, layout computed %d", uint64(out.off), uint64(fileSize))
	}
	return nil
}

// statsWords is the number of uint64 words per member in the stats section:
// logical nodes, leaves, depth, flags, reachable arena nodes.
const statsWords = 5

// bytesInt32 serialises the slice to canonical little-endian bytes.
func bytesInt32(xs []int32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint32(out, uint32(x))
	}
	return out
}

// bytesFloat64 serialises the slice to canonical little-endian bytes.
func bytesFloat64(xs []float64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// bytesUint64 serialises the slice to canonical little-endian bytes.
func bytesUint64(xs []uint64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, x)
	}
	return out
}

// countingWriter tracks the write offset so padding and layout agree.
type countingWriter struct {
	w   io.Writer
	off off64
	err error
}

func newCountingWriter(w io.Writer) *countingWriter { return &countingWriter{w: w} }

func (cw *countingWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(b)
	cw.off = advance(cw.off, off64(n))
	cw.err = err
}

// padTo writes zeros until the offset reaches target.
func (cw *countingWriter) padTo(target off64) {
	if cw.err != nil || cw.off >= target {
		return
	}
	cw.write(make([]byte, target-cw.off))
}
