package main

import (
	"time"

	"udt"
)

// layerProbes reach into the module's internal packages. They are compiled
// only into the traced build (go build -tags perftrace, see probes_trace.go),
// so a refactor of an internal API can break the traced run but never the
// gated, untraced one, which uses only the root udt package, the CLIs, the
// HTTP API and the on-disk formats.
type layerProbes struct {
	// nodeSpans returns cfg with a progress hook that reports each node's
	// split search to fn as it finishes.
	nodeSpans func(cfg udt.Config, fn func(start, end time.Time)) udt.Config
	// wireDecoder splits each /classify body into its raw attribute values
	// and returns a function decoding all of them the way udtserve does
	// (modelio.DecodeTuple against the forest's schema).
	wireDecoder func(bodies [][]byte, f *udt.Forest) (decodeAll func() error, err error)
}

// probes is nil in the untraced build.
var probes *layerProbes
