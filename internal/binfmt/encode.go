package binfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
)

// The encoder builds the global node arena in memory — hash-consing
// structurally identical subtrees across ensemble members — then lays the
// sections out and streams them to the writer. Everything is deterministic:
// nodes are interned in first-encounter order of a fixed member/child walk,
// the schema JSON marshals deterministically, and padding is zeroed, so the
// same model always produces byte-identical container files.

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
	var oob *forest.OOBStats
	if f.OOB.Evaluated > 0 {
		o := f.OOB
		oob = &o
	}
	return encodeModel(w, uint32(mk), f.Classes, f.NumAttrs, f.CatAttrs, f.MemberSnapshots(), oob)
}

// arena accumulates the global hash-consed node arrays during encoding.
type arena struct {
	nc     int
	kind   []uint8
	attr   []int32
	split  []float64
	start  []int32 // start[i] filled as node i is emitted; finalised in finish
	child  []int32
	w      []float64
	dist   []float64
	intern map[string]int32
	keyBuf []byte
}

// emit interns the subtree of src rooted at local node ln, emitting any part
// of it not already in the arena (children first), and returns its global
// id. memo caches this member's local-to-global mapping; projSig
// distinguishes internal nodes of members whose attribute indices mean
// different forest attributes.
func (a *arena) emit(src *core.CompiledArrays, ln int32, projSig int32, memo map[int32]int32) int32 {
	if g, ok := memo[ln]; ok {
		return g
	}
	nc := a.nc
	lo, hi := src.Start[ln], src.Start[ln+1]
	kids := make([]int32, 0, hi-lo)
	for j := lo; j < hi; j++ {
		kids = append(kids, a.emit(src, src.Child[j], projSig, memo))
	}
	// Canonical structural key: everything that determines the subtree's
	// behaviour. Leaves reference no attributes, so they omit the projection
	// signature and dedup across differently-projected members; internal
	// nodes include it because their attr field is member-local.
	k := src.Kind[ln]
	buf := a.keyBuf[:0]
	buf = append(buf, k)
	if k != core.KindLeaf {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(projSig))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(src.Attr[ln]))
	}
	if k == core.KindNum {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(src.Split[ln]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(src.W[ln]))
	for _, d := range src.Dist[int(ln)*nc : int(ln+1)*nc] {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
	}
	for _, g := range kids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g))
	}
	a.keyBuf = buf
	key := string(buf)
	if g, ok := a.intern[key]; ok {
		memo[ln] = g
		return g
	}
	g := int32(len(a.kind))
	a.kind = append(a.kind, k)
	if k == core.KindLeaf {
		a.attr = append(a.attr, 0)
		a.split = append(a.split, 0)
	} else {
		a.attr = append(a.attr, src.Attr[ln])
		if k == core.KindNum {
			a.split = append(a.split, src.Split[ln])
		} else {
			a.split = append(a.split, 0)
		}
	}
	a.w = append(a.w, src.W[ln])
	a.dist = append(a.dist, src.Dist[int(ln)*nc:int(ln+1)*nc]...)
	a.start = append(a.start, int32(len(a.child)))
	a.child = append(a.child, kids...)
	a.intern[key] = g
	memo[ln] = g
	return g
}

// reachable counts the distinct arena nodes reachable from root — the
// member's NumNodes in the shared arena. epoch/stamp implement a reusable
// visited set across members.
func (a *arena) reachable(root int32, seen []int32, stamp int32) int {
	count := 0
	stack := []int32{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] == stamp {
			continue
		}
		seen[n] = stamp
		count++
		for j := a.start[n]; j < a.start[n+1]; j++ {
			stack = append(stack, a.child[j])
		}
	}
	return count
}

// projSignature returns a canonical byte string for a member's projection
// maps ("" for identity members), interned to a small id for node keys.
func projSignature(numIdx, catIdx []int) string {
	if numIdx == nil && catIdx == nil {
		return ""
	}
	var b []byte
	b = append(b, 'n')
	for _, j := range numIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(j))
	}
	b = append(b, 'c')
	for _, j := range catIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(j))
	}
	return string(b)
}

// encodeModel builds the arena and all per-member sections, lays out the
// container, and writes it.
func encodeModel(w io.Writer, modelKind uint32, classes []string, numAttrs, catAttrs []data.Attribute, members []forest.CompiledMember, oob *forest.OOBStats) error {
	nc := len(classes)
	if nc == 0 {
		return fmt.Errorf("binfmt: model has no classes")
	}
	if len(members) == 0 {
		return fmt.Errorf("binfmt: model has no members")
	}
	a := &arena{nc: nc, intern: make(map[string]int32)}
	sigIDs := make(map[string]int32)
	roots := make([]int32, len(members))
	weights := make([]float64, len(members))
	ub := make([]float64, 0, len(members)*nc)
	stats := make([]uint64, 0, len(members)*statsWords)
	var idxPayload []byte
	anyIdx := false

	for mi, m := range members {
		if m.Compiled == nil {
			return fmt.Errorf("binfmt: member %d has no compiled engine", mi)
		}
		src := m.Compiled.Arrays()
		if len(src.Classes) != nc {
			return fmt.Errorf("binfmt: member %d has %d classes, model has %d", mi, len(src.Classes), nc)
		}
		sig := projSignature(m.NumIdx, m.CatIdx)
		sigID, ok := sigIDs[sig]
		if !ok {
			sigID = int32(len(sigIDs))
			sigIDs[sig] = sigID
		}
		memo := make(map[int32]int32, src.Nodes)
		roots[mi] = a.emit(&src, src.Root, sigID, memo)
		weights[mi] = m.Weight
		ub = append(ub, m.Compiled.ClassUpperBounds()...)

		var flags uint64
		if m.NumIdx != nil || m.CatIdx != nil {
			flags |= flagHasIdx
			anyIdx = true
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
			uint64(m.Stats.Nodes), uint64(m.Stats.Leaves), uint64(m.Stats.Depth), flags,
			0) // reach, filled below once the arena is final
	}
	a.start = append(a.start, int32(len(a.child)))

	seen := make([]int32, len(a.kind))
	for i := range seen {
		seen[i] = -1
	}
	for mi, root := range roots {
		stats[mi*statsWords+4] = uint64(a.reachable(root, seen, int32(mi)))
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
		{kindSection, a.kind},
		{attrSection, bytesInt32(a.attr)},
		{splitSection, bytesFloat64(a.split)},
		{startSection, bytesInt32(a.start)},
		{childSection, bytesInt32(a.child)},
		{wSection, bytesFloat64(a.w)},
		{distSection, bytesFloat64(a.dist)},
		{rootsSection, bytesInt32(roots)},
		{weightsSection, bytesFloat64(weights)},
		{ubSection, bytesFloat64(ub)},
		{statsSection, bytesUint64(stats)},
	}
	if anyIdx {
		sections = append(sections, struct {
			id      uint32
			payload []byte
		}{idxSection, idxPayload})
	}
	if oob != nil {
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
	binary.LittleEndian.PutUint32(hdr[4:], modelKind)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(nc))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(numAttrs)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(catAttrs)))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(members)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(a.kind)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(a.child)))
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
