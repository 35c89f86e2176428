// Package modelio loads serialized models — legacy single-tree documents,
// versioned forest containers and binary containers — into one model type,
// and decodes the JSON wire format for uncertain tuples. It is the shared
// model I/O layer of cmd/udtree and cmd/udtserve.
package modelio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"udt/internal/binfmt"
	"udt/internal/forest"
)

// Container formats a model can be loaded from, reported by Model.Format.
const (
	FormatJSON   = "json"
	FormatBinary = "binary"
)

// Model is a loaded model ready for inference: a compiled forest of any kind
// (a single tree is a one-member forest, forest.KindTree) plus the container
// it came from. A binary model's arrays alias the container's memory — the
// file mapping, when mapped — so a serving layer that reloads models must
// Close each one once no request can still be reading it. Models are
// immutable and safe for concurrent use until Close.
type Model struct {
	*forest.Forest
	// Format is the container the model was loaded from: FormatJSON or
	// FormatBinary.
	Format string
	// release unmaps a binary container; nil for JSON models.
	release func() error
}

// Close releases the file mapping of a binary model; the model must not be
// used afterwards. It is safe on every model, nil included: JSON models are
// a no-op, and closing the same model twice — even concurrently — runs the
// unmap exactly once.
func (m *Model) Close() error {
	if m == nil || m.release == nil {
		return nil
	}
	return m.release()
}

// fromContainer adopts a decoded binary container as a model.
func fromContainer(c *binfmt.Container) *Model {
	return &Model{Forest: c.Forest, Format: FormatBinary, release: c.Close}
}

// Decode parses a model document, auto-detecting the format: blobs starting
// with the binfmt magic are binary containers, everything else is JSON — a
// forest container or a legacy single-tree document, which forest decodes
// as a one-member forest. The returned model is compiled and ready to serve.
func Decode(blob []byte) (*Model, error) {
	if binfmt.Sniff(blob) {
		c, err := binfmt.DecodeBytes(blob)
		if err != nil {
			return nil, err
		}
		return fromContainer(c), nil
	}
	f := new(forest.Forest)
	if err := json.Unmarshal(blob, f); err != nil {
		return nil, jsonPos(err)
	}
	return &Model{Forest: f, Format: FormatJSON}, nil
}

// jsonPos annotates a JSON decode failure with the byte offset at which it
// occurred, when the standard decoder knows it. An operator debugging a
// corrupt model file gets the position, not just the symptom.
func jsonPos(err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("byte offset %d: %w", syn.Offset, err)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return fmt.Errorf("byte offset %d: %w", typ.Offset, err)
	}
	return err
}

// Load reads and decodes a model file, auto-detecting the container format.
// Binary containers (recognized by their magic) are loaded through the
// mmap-backed binfmt path; everything else is read and parsed as JSON.
func Load(path string) (*Model, error) {
	binary, err := sniffFile(path)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	if binary {
		// binfmt.Load's errors already carry the path and file offset.
		c, err := binfmt.Load(path)
		if err != nil {
			return nil, err
		}
		return fromContainer(c), nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return m, nil
}

// sniffFile reports whether the file starts with the binary container magic.
// Files shorter than the magic are not binary containers.
func sniffFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	prefix := make([]byte, len(binfmt.Magic))
	n, err := io.ReadFull(f, prefix)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return binfmt.Sniff(prefix[:n]), nil
}
