package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"udt/internal/binfmt"
	"udt/internal/modelio"
)

// toBinary converts a JSON model file into a binary container next to it.
func toBinary(t *testing.T, jsonPath, binPath string) {
	t.Helper()
	m, err := modelio.Load(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := binfmt.EncodeForest(&buf, m.Forest); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeBinaryModel: the server loads a binary container transparently
// (sniffed, never by file name), serves byte-identical classifications to
// the JSON-loaded model, and reports the container format in /healthz.
func TestServeBinaryModel(t *testing.T) {
	dir := t.TempDir()
	jsonPath := trainForestModel(t, dir, 7)
	binPath := filepath.Join(dir, "forest.bin")
	toBinary(t, jsonPath, binPath)

	js, err := newServer(jsonPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(binPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	jts := httptest.NewServer(js.handler())
	defer jts.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	bodies := []string{
		`{"num": [0.2, [1, 2, 3]]}`,
		`{"num": [9.3, [12, 13, 14]]}`,
		`{"num": [null, [2, 3, 4]]}`,
	}
	for _, body := range bodies {
		var want, got struct {
			Class string             `json:"class"`
			Dist  map[string]float64 `json:"dist"`
		}
		decodeBody(t, postJSON(t, jts.URL+"/classify", body), http.StatusOK, &want)
		decodeBody(t, postJSON(t, ts.URL+"/classify", body), http.StatusOK, &got)
		if got.Class != want.Class {
			t.Fatalf("%s: binary server says %q, JSON server %q", body, got.Class, want.Class)
		}
		for c, p := range want.Dist {
			if got.Dist[c] != p {
				t.Fatalf("%s: binary dist %v, JSON dist %v", body, got.Dist, want.Dist)
			}
		}
	}

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Container string `json:"container"`
		Format    string `json:"format"`
		Trees     int    `json:"trees"`
		Nodes     int    `json:"nodes"`
	}
	decodeBody(t, res, http.StatusOK, &health)
	if health.Container != "binary" || health.Format != "forest" || health.Trees != 7 || health.Nodes <= 0 {
		t.Fatalf("healthz = %+v", health)
	}

	res, err = http.Get(jts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, res, http.StatusOK, &health)
	if health.Container != "json" {
		t.Fatalf("JSON server reports container %q", health.Container)
	}
}

// TestServeBinaryTreeModel: a binary single-tree container serves and
// reports tree metadata without a resident pointer tree.
func TestServeBinaryTreeModel(t *testing.T) {
	dir := t.TempDir()
	jsonPath := trainModel(t)
	binPath := filepath.Join(dir, "tree.bin")
	toBinary(t, jsonPath, binPath)

	s, err := newServer(binPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var got struct {
		Class string `json:"class"`
	}
	decodeBody(t, postJSON(t, ts.URL+"/classify", `{"num": [0.2, [1, 2, 3]]}`), http.StatusOK, &got)
	if got.Class != "lo" {
		t.Fatalf("class %q, want lo", got.Class)
	}
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Container string `json:"container"`
		Format    string `json:"format"`
		Nodes     int    `json:"nodes"`
	}
	decodeBody(t, res, http.StatusOK, &health)
	if health.Container != "binary" || health.Format != "tree" || health.Nodes <= 0 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestHealthzFieldsPerKind pins /healthz's field set for every model kind
// and container: a tree — JSON or binary — reports format "tree", its node
// count and its tree description, and no ensemble fields; forests add the
// container version, kind, member count, and OOB statistics (bagged) or
// member weights (boosted).
func TestHealthzFieldsPerKind(t *testing.T) {
	dir := t.TempDir()
	treeJSON := trainModel(t)
	treeBin := filepath.Join(dir, "tree.udt")
	toBinary(t, treeJSON, treeBin)
	common := []string{"classes", "commit", "container", "description", "format", "generation", "goVersion",
		"loadedAt", "model", "models", "name", "nodes", "status", "uptime", "version"}
	ensemble := append([]string{"formatVersion", "kind", "trees"}, common...)
	for _, tc := range []struct {
		name, path, container, format string
		keys                          []string
	}{
		{"tree/json", treeJSON, "json", "tree", common},
		{"tree/binary", treeBin, "binary", "tree", common},
		{"bagged", trainForestModel(t, dir, 3), "json", "forest", append([]string{"oob"}, ensemble...)},
		{"boosted", trainBoostedModel(t, dir), "json", "forest", append([]string{"memberWeights"}, ensemble...)},
	} {
		s, err := newServer(tc.path, 1)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.handler())
		res, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health map[string]any
		decodeBody(t, res, http.StatusOK, &health)
		ts.Close()
		keys := make([]string, 0, len(health))
		for k := range health {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sort.Strings(tc.keys)
		if fmt.Sprint(keys) != fmt.Sprint(tc.keys) {
			t.Errorf("%s: healthz fields %v, want %v", tc.name, keys, tc.keys)
		}
		if health["container"] != tc.container || health["format"] != tc.format {
			t.Errorf("%s: container %v format %v, want %s %s", tc.name, health["container"], health["format"], tc.container, tc.format)
		}
		if tc.format == "tree" {
			desc, _ := health["description"].(string)
			if want := fmt.Sprintf("tree (%v nodes, depth ", health["nodes"]); !strings.HasPrefix(desc, want) {
				t.Errorf("%s: description %q, want prefix %q", tc.name, desc, want)
			}
		}
	}
}

// replaceFile atomically replaces dst with a copy of src: write to a temp
// file in the same directory, then rename over dst. This is the mandatory
// deploy contract for a file the server may have mmap'd — truncating a
// mapped file in place (as plain copyFile would) yields SIGBUS in every
// request still reading the old mapping; rename leaves the old inode alive
// until its last mapping is released.
func replaceFile(t *testing.T, src, dst string) {
	t.Helper()
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryHotReloadUnderTraffic: reloads that swap between binary and JSON
// containers while classification traffic flows must never fail a request or
// change an answer — in-flight requests finish on the mapping they started
// with, and retired mappings are released only after their last request
// drains (the race detector polices the unmap ordering). Deploys go through
// replaceFile's atomic rename, the contract for replacing a mapped file.
func TestBinaryHotReloadUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	jsonPath := trainForestModel(t, dir, 5)
	binPath := filepath.Join(dir, "forest.bin")
	toBinary(t, jsonPath, binPath)
	modelPath := filepath.Join(dir, "model.live")
	replaceFile(t, binPath, modelPath)

	s, err := newServer(modelPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := http.Post(ts.URL+"/classify", "application/json",
					bytes.NewReader([]byte(`{"num": [9.2, [12, 13, 14]]}`)))
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				var got struct {
					Class string `json:"class"`
				}
				err = json.NewDecoder(res.Body).Decode(&got)
				res.Body.Close()
				if err != nil || res.StatusCode != http.StatusOK || got.Class != "hi" {
					select {
					case errs <- fmt.Errorf("status %d class %q err %v", res.StatusCode, got.Class, err):
					default:
					}
					return
				}
			}
		}()
	}

	// Alternate binary -> json -> binary -> ... under traffic.
	for i := 0; i < 6; i++ {
		src := binPath
		if i%2 == 0 {
			src = jsonPath
		}
		replaceFile(t, src, modelPath)
		var rl struct {
			Status string `json:"status"`
		}
		decodeBody(t, postJSON(t, ts.URL+"/reload", `{}`), http.StatusOK, &rl)
		if rl.Status != "reloaded" {
			t.Fatalf("reload %d: %+v", i, rl)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("classification failed during binary reloads: %v", err)
	default:
	}

	// Final state: the binary container is serving again.
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Container  string `json:"container"`
		Generation int64  `json:"generation"`
	}
	decodeBody(t, res, http.StatusOK, &health)
	if health.Container != "binary" || health.Generation != 7 {
		t.Fatalf("after reloads healthz = %+v", health)
	}
}

// TestClassifyStreamGoldenBinary pins /classify/stream served from a binary
// container to the same shared golden stream the JSON-served and CLI paths
// pin to: converting the model to the mmap format must not move a single
// output byte.
func TestClassifyStreamGoldenBinary(t *testing.T) {
	fixtures := "../../testdata/stream"
	binPath := filepath.Join(t.TempDir(), "model.udt")
	toBinary(t, fixtures+"/model.json", binPath)
	s, err := newServer(binPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	input, err := os.Open(fixtures + "/input.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := http.Post(ts.URL+"/classify/stream", ndjsonType, input)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(fixtures + "/golden.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(golden) {
		t.Fatalf("binary-served /classify/stream diverges from the golden stream.\ngot:\n%swant:\n%s", body, golden)
	}
}
