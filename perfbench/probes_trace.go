//go:build perftrace

package main

import (
	"encoding/json"
	"fmt"
	"time"

	"udt"
	"udt/internal/modelio"
	"udt/internal/obs"
)

func init() {
	probes = &layerProbes{
		nodeSpans: func(cfg udt.Config, fn func(start, end time.Time)) udt.Config {
			cfg.Progress = &obs.ProgressHook{OnNode: func(e obs.NodeSearch) {
				end := time.Now()
				fn(end.Add(-e.Elapsed), end)
			}}
			return cfg
		},
		wireDecoder: func(bodies [][]byte, f *udt.Forest) (func() error, error) {
			_, numAttrs, catAttrs := f.Schema()
			raws := make([][]json.RawMessage, len(bodies))
			for i, b := range bodies {
				var req struct{ Num []json.RawMessage }
				if err := json.Unmarshal(b, &req); err != nil {
					return nil, fmt.Errorf("body %d: %w", i, err)
				}
				raws[i] = req.Num
			}
			return func() error {
				for _, num := range raws {
					if _, err := modelio.DecodeTuple(num, nil, numAttrs, catAttrs); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
	}
}
