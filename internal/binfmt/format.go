// Package binfmt implements the versioned binary model container: a
// little-endian, 64-byte-aligned columnar file whose node sections are the
// arrays of the model's core.Arena, the one compiled layout every model
// classifies over. The encoder writes a forest's arena, roots, weights,
// bounds and stats as they are. Load maps the file into memory and hands the
// validated sections to forest.FromArena, the constructor every other model
// source ends in too, so a mapped model and one compiled from trees differ
// only in the memory behind the arena — no parsing, no copying, and pages
// shared across every process serving the same model — with a portable
// read-into-slab fallback for platforms without mmap (and for the fuzzer).
// JSON remains the interchange format; this is the serving format.
//
// # Layout
//
//	[0,8)    magic "UDTBIN01"
//	[8,72)   fixed 64-byte header (counts; see header)
//	[72,..)  section table: sectionCount × 24-byte entries {id,pad,offset,size}
//	...      section payloads, each starting at a 64-byte-aligned offset,
//	         in section-table order, zero-padded between sections
//
// All integers and floats are little-endian; sections hold the arrays
// verbatim (int32/float64/uint8/uint64 elements), so on little-endian hosts
// a section is usable in place. The node arrays form one arena shared by
// every ensemble member, hash-consed when the model was compiled
// (core.Interner: bootstrap overlap makes duplicate subtrees common), and
// each member is a root index into the arena plus its weight, emission
// upper bounds, stats and optional attribute projection. Decode recomputes
// each member's bounds and reach from the arena and refuses a container
// whose stored ones differ.
//
// Nodes are in post-order, first encounter, which yields two load-bearing
// properties: the nodes a subtree adds occupy a contiguous id range (cache
// locality for the descent), and every child id is strictly smaller than
// its parent's, so one linear pass over the child array proves the graph
// acyclic and every descent terminating, no matter how the file was
// crafted.
package binfmt

import (
	"fmt"

	"udt/internal/forest"
)

// Magic is the 8-byte file signature; the first bytes of every container.
// modelio sniffs it to route Load between the binary and JSON decoders.
const Magic = "UDTBIN01"

// headerVersion is the container layout version this package reads and
// writes.
const headerVersion = 1

// Model kinds stored in the header. The values are wire constants.
const (
	kindTree    uint32 = 0
	kindBagged  uint32 = 1
	kindBoosted uint32 = 2
)

// kindNames maps each header kind onto forest's kind vocabulary. A tree
// container holds a one-member forest; forest enforces that rule.
var kindNames = [...]string{
	kindTree:    forest.KindTree,
	kindBagged:  forest.KindBagged,
	kindBoosted: forest.KindBoosted,
}

// Section ids, in their required file order. Sections idxSection and
// oobSection are optional; all others must be present exactly once.
const (
	schemaSection  uint32 = 1  // JSON schema document (classes, attributes); tiny, parsed eagerly
	kindSection    uint32 = 2  // []uint8, nodeCount — node kinds (core.KindLeaf/Num/Cat)
	attrSection    uint32 = 3  // []int32, nodeCount — tested attribute (member-local index)
	splitSection   uint32 = 4  // []float64, nodeCount — numeric split points
	startSection   uint32 = 5  // []int32, nodeCount+1 — CSR row pointers into child
	childSection   uint32 = 6  // []int32, childCount — child node ids
	wSection       uint32 = 7  // []float64, nodeCount — training weight per node
	distSection    uint32 = 8  // []float64, nodeCount*classCount — class rows
	rootsSection   uint32 = 9  // []int32, memberCount — per-member root node id
	weightsSection uint32 = 10 // []float64, memberCount — per-member vote weight
	ubSection      uint32 = 11 // []float64, memberCount*classCount — emission upper bounds
	statsSection   uint32 = 12 // []uint64, memberCount*statsWords — nodes, leaves, depth, flags, reach
	idxSection     uint32 = 13 // packed projections for flagged members (optional)
	oobSection     uint32 = 14 // []float64+u64: accuracy, brier, evaluated (optional)
)

// Per-member flag bits in the stats section.
const flagHasIdx uint64 = 1 << 0 // member carries attribute projection maps

// Hard caps on header counts. They keep every derived size computation well
// inside uint64 and every id inside int32, so a crafted header cannot
// overflow arithmetic into an over- or under-sized mapping.
const (
	maxNodes   = 1 << 31 // ids are int32
	maxChilds  = 1 << 31
	maxClasses = 1 << 16
	maxMembers = 1 << 20
	maxAttrs   = 1 << 16
	maxFile    = 1 << 42 // 4 TiB; far above any real model, far below overflow
)

// off64 is a byte offset or size within a container file. Layout arithmetic
// on offsets is confined to the blessed helpers below (the udtlint
// alignfield analyzer enforces this), which keeps every section placement
// going through the single alignment rule.
type off64 uint64

// sectionAlign is the required alignment of every section payload. 64 bytes
// covers the widest element type (float64) with room to spare and matches
// the cache-line size the descent is blocked for.
const sectionAlign = 64

// headerSize is the fixed header length; the section table starts at
// len(Magic)+headerSize.
const headerSize = 64

// sectionEntrySize is the size of one section-table entry:
// u32 id, u32 pad, u64 offset, u64 size.
const sectionEntrySize = 24

// align rounds an offset up to the next section boundary.
//
//udt:alignsafe
func align(o off64) off64 { return (o + sectionAlign - 1) &^ (sectionAlign - 1) }

// aligned reports whether an offset sits on a section boundary.
//
//udt:alignsafe
func aligned(o off64) bool { return o&(sectionAlign-1) == 0 }

// advance moves an offset past a payload of the given size.
//
//udt:alignsafe
func advance(o off64, size off64) off64 { return o + size }

// tableEnd returns the offset one past the section table for n sections.
//
//udt:alignsafe
func tableEnd(n int) off64 {
	return off64(len(Magic)) + headerSize + off64(n)*sectionEntrySize
}

// header is the decoded fixed header.
type header struct {
	modelKind uint32
	classes   uint32
	numAttrs  uint32
	catAttrs  uint32
	members   uint32
	nodes     uint64
	childs    uint64
	sections  uint32
	fileSize  uint64
}

// section is one decoded section-table entry.
type section struct {
	id   uint32
	off  off64
	size off64
}

// errAt wraps a decode failure with its file position, so a truncated or
// corrupted container names the byte that betrayed it.
func errAt(off off64, format string, args ...any) error {
	return fmt.Errorf("binfmt: offset %d: %s", uint64(off), fmt.Sprintf(format, args...))
}
