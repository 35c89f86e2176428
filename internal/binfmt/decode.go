package binfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/forest"
)

// Container is a decoded binary model: a forest of any kind, a tree
// container included. When the container was mmap'd, the model's arrays
// alias the mapping: Close unmaps it, after which the model must not be
// used. Slab-backed containers have a no-op Close.
type Container struct {
	Forest    *forest.Forest
	closer    func() error // immutable after decode; consumed exactly once by Close
	closeOnce sync.Once
}

// Mapped reports whether the container was loaded over an mmap'd file (true)
// or allocated memory (false). The answer does not change on Close.
func (c *Container) Mapped() bool { return c.closer != nil }

// Close releases the file mapping, if any. The model must not be used
// afterwards. Close is idempotent and safe on a nil container, including
// under concurrent double-close: a registry evicting a model can race a
// retiring hot-reload drain, and a second munmap of the same (possibly
// re-used) address range would be undefined behavior, so exactly one caller
// runs the unmap and everyone else gets nil.
func (c *Container) Close() error {
	if c == nil {
		return nil
	}
	var err error
	c.closeOnce.Do(func() {
		if c.closer != nil {
			err = c.closer()
		}
	})
	return err
}

// Sniff reports whether the blob begins with the binary container magic.
// Eight bytes are enough to decide.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// DecodeBytes decodes an in-memory container image. The image is copied into
// an aligned slab, so the input may be reused or mutated afterwards and the
// returned container never needs Close (calling it is a no-op). This is the
// fuzzer's entry point and the portable fallback's core.
func DecodeBytes(img []byte) (*Container, error) {
	slab := alignedSlab(len(img))
	copy(slab, img)
	return decode(slab, nil)
}

// decode validates the image end to end and assembles the model over views
// into it. closer, when non-nil, owns the backing mapping and is handed to
// the container.
//
// Validation order matters: every array access below a check is protected by
// it. After the structural pass proves child[j] < parent for every edge, all
// descents and walks over the arena terminate — including on hostile input.
func decode(img []byte, closer func() error) (*Container, error) {
	hdr, err := parseHeader(img)
	if err != nil {
		return nil, err
	}
	secs, err := parseTable(img, hdr)
	if err != nil {
		return nil, err
	}

	nodes := int(hdr.nodes)
	childs := int(hdr.childs)
	nc := int(hdr.classes)
	nm := int(hdr.members)

	required := []struct {
		id   uint32
		size off64
	}{
		{kindSection, off64(nodes)},
		{attrSection, 4 * off64(nodes)},
		{splitSection, 8 * off64(nodes)},
		{startSection, 4 * (off64(nodes) + 1)},
		{childSection, 4 * off64(childs)},
		{wSection, 8 * off64(nodes)},
		{distSection, 8 * off64(nodes) * off64(nc)},
		{rootsSection, 4 * off64(nm)},
		{weightsSection, 8 * off64(nm)},
		{ubSection, 8 * off64(nm) * off64(nc)},
		{statsSection, 8 * statsWords * off64(nm)},
	}
	schemaSec, ok := secs[schemaSection]
	if !ok {
		return nil, errAt(tableEnd(len(secs)), "missing schema section")
	}
	for _, req := range required {
		s, ok := secs[req.id]
		if !ok {
			return nil, errAt(tableEnd(len(secs)), "missing section %d", req.id)
		}
		if s.size != req.size {
			return nil, errAt(s.off, "section %d has %d bytes, header counts require %d", req.id, uint64(s.size), uint64(req.size))
		}
	}

	classes, numAttrs, catAttrs, err := parseSchema(img, schemaSec, hdr)
	if err != nil {
		return nil, err
	}

	payload := func(id uint32) []byte {
		s := secs[id]
		return img[s.off : s.off+s.size]
	}
	kind := viewUint8(payload(kindSection))
	attr := viewInt32(payload(attrSection))
	split := viewFloat64(payload(splitSection))
	start := viewInt32(payload(startSection))
	child := viewInt32(payload(childSection))
	w := viewFloat64(payload(wSection))
	dist := viewFloat64(payload(distSection))
	roots := viewInt32(payload(rootsSection))
	weights := viewFloat64(payload(weightsSection))
	ub := viewFloat64(payload(ubSection))
	stats := viewUint64(payload(statsSection))

	memIdx, err := parseIdx(img, secs, hdr, stats)
	if err != nil {
		return nil, err
	}
	oob, err := parseOOB(img, secs, hdr)
	if err != nil {
		return nil, err
	}

	if err := validateArena(secs, kind, start, child, nodes, childs); err != nil {
		return nil, err
	}

	ubOff := secs[ubSection].off
	for i, v := range ub {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, errAt(ubOff+off64(i)*8, "upper bound %v is not a finite non-negative number", v)
		}
	}
	rootsOff := secs[rootsSection].off
	for mi, r := range roots {
		if r < 0 || int(r) >= nodes {
			return nil, errAt(rootsOff+off64(mi)*4, "member %d root %d out of range [0,%d)", mi, r, nodes)
		}
	}

	members := make([]forest.Member, nm)
	for mi := range members {
		st, err := parseStats(secs[statsSection], stats, mi)
		if err != nil {
			return nil, err
		}
		members[mi] = forest.Member{Root: roots[mi], Weight: weights[mi], Stats: st}
		if memIdx[mi] != nil {
			members[mi].NumIdx = memIdx[mi].num
			members[mi].CatIdx = memIdx[mi].cat
		}
	}
	var oobStats forest.OOBStats
	if oob != nil {
		oobStats = *oob
	}
	arena := &core.Arena{Kind: kind, Attr: attr, Split: split, Start: start, Child: child, W: w, Dist: dist}
	f, err := forest.FromArena(classes, numAttrs, catAttrs, arena, members, kindNames[hdr.modelKind], oobStats)
	if err != nil {
		return nil, errAt(off64(len(Magic)), "assemble ensemble: %v", err)
	}

	// The forest computed every member's engine from the arena. Its nodes
	// must test attributes of the member's schema, and the stored upper
	// bounds (which early exit trusts) and reach must be what the arena
	// gives.
	statsOff := secs[statsSection].off
	seen := make([]int, nodes)
	for mi, m := range f.Members() {
		c := m.Compiled
		if err := validateMemberAttrs(secs, kind, attr, start, child, c.NumAttrs, c.CatAttrs, roots[mi], seen, mi); err != nil {
			return nil, err
		}
		for ci, v := range c.ClassUpperBounds() {
			if i := mi*nc + ci; math.Float64bits(ub[i]) != math.Float64bits(v) {
				return nil, errAt(ubOff+off64(i)*8, "member %d class %d upper bound %v, the arena gives %v", mi, ci, ub[i], v)
			}
		}
		if i := mi*statsWords + 4; stats[i] != uint64(c.Reach()) {
			return nil, errAt(statsOff+off64(i)*8, "member %d reaches %d arena nodes, its stats say %d", mi, c.Reach(), stats[i])
		}
	}
	return &Container{Forest: f, closer: closer}, nil
}

// parseHeader validates the magic and fixed header.
func parseHeader(img []byte) (header, error) {
	var h header
	if len(img) < len(Magic)+headerSize {
		return h, errAt(0, "file is %d bytes, smaller than the %d-byte preamble", len(img), len(Magic)+headerSize)
	}
	if !Sniff(img) {
		return h, errAt(0, "bad magic %q", img[:len(Magic)])
	}
	b := img[len(Magic):]
	if v := binary.LittleEndian.Uint32(b[0:]); v != headerVersion {
		return h, errAt(off64(len(Magic)), "container version %d, this build reads %d", v, headerVersion)
	}
	h.modelKind = binary.LittleEndian.Uint32(b[4:])
	h.classes = binary.LittleEndian.Uint32(b[8:])
	h.numAttrs = binary.LittleEndian.Uint32(b[12:])
	h.catAttrs = binary.LittleEndian.Uint32(b[16:])
	h.members = binary.LittleEndian.Uint32(b[20:])
	h.nodes = binary.LittleEndian.Uint64(b[24:])
	h.childs = binary.LittleEndian.Uint64(b[32:])
	h.sections = binary.LittleEndian.Uint32(b[40:])
	h.fileSize = binary.LittleEndian.Uint64(b[48:])

	at := func(field int) off64 { return off64(len(Magic) + field) }
	if h.modelKind >= uint32(len(kindNames)) {
		return h, errAt(at(4), "unknown model kind %d", h.modelKind)
	}
	if h.classes == 0 || h.classes > maxClasses {
		return h, errAt(at(8), "class count %d out of [1,%d]", h.classes, maxClasses)
	}
	if h.numAttrs > maxAttrs || h.catAttrs > maxAttrs {
		return h, errAt(at(12), "attribute counts %d/%d exceed %d", h.numAttrs, h.catAttrs, maxAttrs)
	}
	if h.members == 0 || h.members > maxMembers {
		return h, errAt(at(20), "member count %d out of [1,%d]", h.members, maxMembers)
	}
	if h.nodes == 0 || h.nodes > maxNodes {
		return h, errAt(at(24), "node count %d out of [1,%d]", h.nodes, uint64(maxNodes))
	}
	if h.childs > maxChilds {
		return h, errAt(at(32), "child count %d exceeds %d", h.childs, uint64(maxChilds))
	}
	if h.sections < 12 || h.sections > 16 {
		return h, errAt(at(40), "section count %d out of [12,16]", h.sections)
	}
	if h.fileSize != uint64(len(img)) {
		return h, errAt(at(48), "header says %d bytes, file has %d", h.fileSize, len(img))
	}
	if h.fileSize > maxFile {
		return h, errAt(at(48), "file size %d exceeds %d", h.fileSize, uint64(maxFile))
	}
	return h, nil
}

// parseTable validates the section table: known ids in strictly increasing
// order, each payload 64-byte aligned, in bounds, and non-overlapping.
func parseTable(img []byte, hdr header) (map[uint32]section, error) {
	n := int(hdr.sections)
	end := tableEnd(n)
	if off64(len(img)) < end {
		return nil, errAt(off64(len(img)), "file truncated inside the %d-entry section table", n)
	}
	secs := make(map[uint32]section, n)
	prevID := uint32(0)
	cursor := end
	for i := 0; i < n; i++ {
		entryOff := tableEnd(i)
		b := img[entryOff:]
		s := section{
			id:   binary.LittleEndian.Uint32(b[0:]),
			off:  off64(binary.LittleEndian.Uint64(b[8:])),
			size: off64(binary.LittleEndian.Uint64(b[16:])),
		}
		if s.id <= prevID || s.id > oobSection {
			return nil, errAt(entryOff, "section id %d out of order or unknown (previous %d)", s.id, prevID)
		}
		prevID = s.id
		if !aligned(s.off) {
			return nil, errAt(entryOff, "section %d offset %d is not %d-byte aligned", s.id, uint64(s.off), sectionAlign)
		}
		if s.off < cursor {
			return nil, errAt(entryOff, "section %d offset %d overlaps the previous section ending at %d", s.id, uint64(s.off), uint64(cursor))
		}
		if s.size > off64(len(img)) || s.off > off64(len(img))-s.size {
			return nil, errAt(entryOff, "section %d spans [%d,%d+%d), beyond the %d-byte file", s.id, uint64(s.off), uint64(s.off), uint64(s.size), len(img))
		}
		cursor = advance(s.off, s.size)
		secs[s.id] = s
	}
	return secs, nil
}

// parseSchema decodes the schema JSON and checks it against the header
// counts.
func parseSchema(img []byte, s section, hdr header) (classes []string, numAttrs, catAttrs []data.Attribute, err error) {
	var doc schemaJSON
	if err := json.Unmarshal(img[s.off:s.off+s.size], &doc); err != nil {
		return nil, nil, nil, errAt(s.off, "schema: %v", err)
	}
	if len(doc.Classes) != int(hdr.classes) {
		return nil, nil, nil, errAt(s.off, "schema has %d classes, header says %d", len(doc.Classes), hdr.classes)
	}
	if len(doc.NumAttrs) != int(hdr.numAttrs) || len(doc.CatAttrs) != int(hdr.catAttrs) {
		return nil, nil, nil, errAt(s.off, "schema has %d/%d attributes, header says %d/%d",
			len(doc.NumAttrs), len(doc.CatAttrs), hdr.numAttrs, hdr.catAttrs)
	}
	for _, a := range doc.NumAttrs {
		numAttrs = append(numAttrs, data.Attribute{Name: a.Name, Kind: data.Numeric})
	}
	for _, a := range doc.CatAttrs {
		catAttrs = append(catAttrs, data.Attribute{Name: a.Name, Kind: data.Categorical, Domain: a.Domain})
	}
	return doc.Classes, numAttrs, catAttrs, nil
}

// memberIdx is one member's decoded projection maps.
type memberIdx struct {
	num []int
	cat []int
}

// parseIdx decodes the optional projection section, cross-checking it
// against the per-member flags: every flagged member has exactly one entry,
// in member order, and unflagged members have none.
func parseIdx(img []byte, secs map[uint32]section, hdr header, stats []uint64) ([]*memberIdx, error) {
	nm := int(hdr.members)
	out := make([]*memberIdx, nm)
	s, present := secs[idxSection]
	flagged := 0
	for mi := 0; mi < nm; mi++ {
		if stats[mi*statsWords+3]&flagHasIdx != 0 {
			flagged++
		}
	}
	if !present {
		if flagged > 0 {
			return nil, errAt(secs[statsSection].off, "%d members are flagged as projected but the container has no projection section", flagged)
		}
		return out, nil
	}
	if flagged == 0 {
		return nil, errAt(s.off, "projection section present but no member is flagged as projected")
	}
	cur := s.off
	end := s.off + s.size
	readU32 := func(what string) (uint32, error) {
		if end-cur < 4 {
			return 0, errAt(cur, "projection section truncated reading %s", what)
		}
		v := binary.LittleEndian.Uint32(img[cur:])
		cur += 4
		return v, nil
	}
	for mi := 0; mi < nm; mi++ {
		if stats[mi*statsWords+3]&flagHasIdx == 0 {
			continue
		}
		nLen, err := readU32(fmt.Sprintf("member %d numIdx length", mi))
		if err != nil {
			return nil, err
		}
		cLen, err := readU32(fmt.Sprintf("member %d catIdx length", mi))
		if err != nil {
			return nil, err
		}
		if nLen > hdr.numAttrs || cLen > hdr.catAttrs {
			return nil, errAt(cur, "member %d projects %d/%d attributes, schema has %d/%d", mi, nLen, cLen, hdr.numAttrs, hdr.catAttrs)
		}
		idx := &memberIdx{num: make([]int, nLen), cat: make([]int, cLen)}
		for k := range idx.num {
			v, err := readU32(fmt.Sprintf("member %d numIdx[%d]", mi, k))
			if err != nil {
				return nil, err
			}
			idx.num[k] = int(v)
		}
		for k := range idx.cat {
			v, err := readU32(fmt.Sprintf("member %d catIdx[%d]", mi, k))
			if err != nil {
				return nil, err
			}
			idx.cat[k] = int(v)
		}
		out[mi] = idx
	}
	if cur != end {
		return nil, errAt(cur, "projection section has %d trailing bytes", uint64(end-cur))
	}
	return out, nil
}

// parseOOB decodes the optional out-of-bag statistics section.
func parseOOB(img []byte, secs map[uint32]section, hdr header) (*forest.OOBStats, error) {
	s, present := secs[oobSection]
	if !present {
		return nil, nil
	}
	if s.size != 24 {
		return nil, errAt(s.off, "OOB section has %d bytes, want 24", uint64(s.size))
	}
	o := &forest.OOBStats{
		Accuracy:  math.Float64frombits(binary.LittleEndian.Uint64(img[s.off:])),
		Brier:     math.Float64frombits(binary.LittleEndian.Uint64(img[s.off+8:])),
		Evaluated: int(binary.LittleEndian.Uint64(img[s.off+16:])),
	}
	if o.Evaluated <= 0 || math.IsNaN(o.Accuracy) || math.IsNaN(o.Brier) {
		return nil, errAt(s.off, "OOB statistics malformed (accuracy %v, brier %v, evaluated %d)", o.Accuracy, o.Brier, o.Evaluated)
	}
	return o, nil
}

// parseStats validates member mi's stats record and returns its build
// statistics. The reach word is checked against the arena once the member is
// compiled.
func parseStats(s section, stats []uint64, mi int) (core.BuildStats, error) {
	rec := stats[mi*statsWords : (mi+1)*statsWords]
	at := s.off + off64(mi*statsWords)*8
	for k := 0; k < 3; k++ {
		if rec[k] > maxNodes {
			return core.BuildStats{}, errAt(at, "member %d stats word %d is %d, exceeds %d", mi, k, rec[k], uint64(maxNodes))
		}
	}
	if rec[3]&^flagHasIdx != 0 {
		return core.BuildStats{}, errAt(at, "member %d has unknown flag bits %#x", mi, rec[3])
	}
	return core.BuildStats{Nodes: int(rec[0]), Leaves: int(rec[1]), Depth: int(rec[2])}, nil
}

// validateArena proves the node arrays structurally sound: CSR row pointers
// monotone and bounded, kinds known with the right child arity, and — the
// termination guarantee — every child id strictly smaller than its parent's,
// so the arena is a DAG and every descent over it halts.
func validateArena(secs map[uint32]section, kind []uint8, start, child []int32, nodes, childs int) error {
	startOff := secs[startSection].off
	if start[0] != 0 {
		return errAt(startOff, "start[0] = %d, want 0", start[0])
	}
	if int(start[nodes]) != childs {
		return errAt(startOff+off64(nodes)*4, "start[%d] = %d, want child count %d", nodes, start[nodes], childs)
	}
	kindOff := secs[kindSection].off
	childOff := secs[childSection].off
	for i := 0; i < nodes; i++ {
		lo, hi := start[i], start[i+1]
		if lo > hi || int(hi) > childs {
			return errAt(startOff+off64(i)*4, "node %d child row [%d,%d) is not monotone within %d children", i, lo, hi, childs)
		}
		span := int(hi - lo)
		switch kind[i] {
		case core.KindLeaf:
			if span != 0 {
				return errAt(kindOff+off64(i), "leaf %d has %d children", i, span)
			}
		case core.KindNum:
			if span != 2 {
				return errAt(kindOff+off64(i), "numeric node %d has %d children, want 2", i, span)
			}
		case core.KindCat:
			if span < 1 {
				return errAt(kindOff+off64(i), "categorical node %d has no children", i)
			}
		default:
			return errAt(kindOff+off64(i), "node %d has unknown kind %d", i, kind[i])
		}
		for j := lo; j < hi; j++ {
			c := child[j]
			if c < 0 || c >= int32(i) {
				return errAt(childOff+off64(j)*4, "node %d child %d violates child < parent (the acyclicity invariant)", i, c)
			}
		}
	}
	return nil
}

// validateMemberAttrs walks member mi's reachable nodes, checking attribute
// indices and domain arities against the member's schema. seen (one entry
// per arena node, shared by the members' walks) records mi+1 on the nodes
// this walk has visited.
func validateMemberAttrs(secs map[uint32]section, kind []uint8, attr, start, child []int32, numAttrs, catAttrs []data.Attribute, root int32, seen []int, mi int) error {
	attrOff := secs[attrSection].off
	stack := []int32{root}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] == mi+1 {
			continue
		}
		seen[i] = mi + 1
		switch kind[i] {
		case core.KindNum:
			if a := attr[i]; a < 0 || int(a) >= len(numAttrs) {
				return errAt(attrOff+off64(i)*4, "member %d: numeric node %d tests attribute %d, member schema has %d", mi, i, a, len(numAttrs))
			}
		case core.KindCat:
			a := attr[i]
			if a < 0 || int(a) >= len(catAttrs) {
				return errAt(attrOff+off64(i)*4, "member %d: categorical node %d tests attribute %d, member schema has %d", mi, i, a, len(catAttrs))
			}
			if span, dom := int(start[i+1]-start[i]), len(catAttrs[a].Domain); span != dom {
				return errAt(attrOff+off64(i)*4, "member %d: categorical node %d has %d children, attribute domain has %d values", mi, i, span, dom)
			}
		}
		for j := start[i]; j < start[i+1]; j++ {
			stack = append(stack, child[j])
		}
	}
	return nil
}
