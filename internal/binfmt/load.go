package binfmt

import (
	"fmt"
	"io"
	"os"
)

// Load opens and decodes a binary model container. On platforms with mmap
// the file is mapped read-only and the model's arena points straight into
// the mapping — near-zero load cost, pages shared with every other process
// mapping the same file, and nothing to parse. Elsewhere (or if mapping
// fails) the file is read into an aligned slab instead; same model, plain
// memory. Call Close on the returned container when the model is retired;
// for mapped containers that unmaps the file.
//
// Deploy contract: a file that may be mapped must only ever be replaced by
// an atomic rename(2) of a fully written new file — never truncated or
// rewritten in place. The mapping is MAP_SHARED, so in-place truncation
// faults (SIGBUS) every reader of the old content; rename leaves the old
// inode intact until its last mapping is closed.
func Load(path string) (*Container, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("binfmt: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("binfmt: %s: %w", path, err)
	}
	size := st.Size()
	if size > maxFile {
		return nil, fmt.Errorf("binfmt: %s: file size %d exceeds %d", path, size, int64(maxFile))
	}
	// decode errors already carry the "binfmt: offset N" prefix from errAt;
	// prepend only the path so the message reads "path: binfmt: offset N: ...".
	if data, unmap, ok := mmapFile(f, size); ok {
		c, err := decode(data, unmap)
		if err != nil {
			unmap() //nolint:errcheck — the decode error is the diagnosis
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return c, nil
	}
	c, err := loadSlab(f, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// loadSlab is the portable io.ReaderAt path: the whole file is read into an
// aligned allocation and decoded in place.
func loadSlab(f io.ReaderAt, size int64) (*Container, error) {
	if size < 0 || size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("file size %d not addressable", size)
	}
	slab := alignedSlab(int(size))
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), slab); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return decode(slab, nil)
}
