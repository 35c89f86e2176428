package udt_test

// Serving-tier integration smoke: two real udtserve replicas (multi-model
// registry from one manifest) behind a real udtproxy, driven with mixed
// single, batch and stream requests to both models. One replica is killed
// between traffic phases; the proxy's transport-level retry plus
// health-checked failover must keep the post-kill phase at zero failed
// requests, and the surviving replica's Prometheus exposition must carry
// per-model series for every model served.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"udt"
	"udt/internal/loadgen"
	"udt/internal/obs"
)

const smokeCSV = `x,y,class
0.1,1;2;3,lo
0.2,2;3;4,lo
0.3,1;3;5,lo
0.4,2;2;3,lo
9.1,11;12;13,hi
9.2,12;13;14,hi
9.3,11;13;15,hi
9.4,12;12;13,hi
`

// buildBinary compiles one cmd/ binary into dir.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startDaemon launches a binary and extracts its listen address from the
// startup line (the last "on <addr>" token before the comma or EOL).
func startDaemon(t *testing.T, ctx context.Context, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, " on "); ok {
				addr, _, _ := strings.Cut(rest, ",")
				addrc <- strings.TrimSpace(addr)
				break
			}
		}
		close(addrc)
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || addr == "" {
			t.Fatalf("%s: no listen address in startup output", filepath.Base(bin))
		}
		return cmd, addr
	case <-time.After(15 * time.Second):
		t.Fatalf("%s: startup line never appeared", filepath.Base(bin))
		return nil, ""
	}
}

// waitHTTP polls a URL until it answers 200.
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy", url)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestProxyFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries; skipped in -short")
	}
	dir := t.TempDir()

	// Two models from the shared fixture: "alpha" a single tree (the
	// manifest default), "beta" a bagged forest.
	ds, err := udt.ReadCSV(strings.NewReader(smokeCSV), "smoke")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := udt.Build(ds, udt.Config{MinWeight: 1, PostPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := udt.TrainForest(ds, udt.ForestConfig{Trees: 3, Seed: 5, TreeConfig: udt.Config{MinWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	writeJSON := func(name string, v any) {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON("alpha.udt", tree)
	writeJSON("beta.udt", forest)
	manifest := filepath.Join(dir, "models.manifest.json")
	if err := os.WriteFile(manifest, []byte(`{"models": [
		{"name": "alpha", "path": "alpha.udt", "default": true},
		{"name": "beta", "path": "beta.udt"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	serveBin := buildBinary(t, dir, "udtserve")
	proxyBin := buildBinary(t, dir, "udtproxy")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep1, addr1 := startDaemon(t, ctx, serveBin, "-models", manifest, "-addr", "127.0.0.1:0", "-workers", "2")
	_, addr2 := startDaemon(t, ctx, serveBin, "-models", manifest, "-addr", "127.0.0.1:0", "-workers", "2")
	waitHTTP(t, "http://"+addr1+"/healthz")
	waitHTTP(t, "http://"+addr2+"/healthz")

	_, proxyAddr := startDaemon(t, ctx, proxyBin,
		"-backends", "http://"+addr1+",http://"+addr2,
		"-addr", "127.0.0.1:0", "-strategy", "roundrobin",
		"-health-interval", "100ms", "-health-timeout", "1s")
	proxyURL := "http://" + proxyAddr
	waitHTTP(t, proxyURL+"/-/healthz")

	payloads, err := loadgen.PayloadsFromCSV(strings.NewReader(smokeCSV), "smoke")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	drive := func(phase string, seed int64) {
		t.Helper()
		const requests = 90
		res, err := loadgen.Drive(context.Background(), client, proxyURL, payloads, seed, requests, "alpha", "beta")
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if res.OK != requests || res.Failed != 0 {
			t.Fatalf("%s: drive = %+v, want all %d requests OK", phase, res, requests)
		}
		for _, model := range []string{"alpha", "beta"} {
			if res.ByModel[model] == 0 {
				t.Fatalf("%s: no traffic reached model %s", phase, model)
			}
		}
	}

	drive("both replicas up", 21)

	// Kill replica 1. The proxy has not noticed yet when the next phase
	// starts, so the first arrivals exercise the transport-failure retry
	// path; the health poller then drops the backend for good. Either way:
	// zero failed requests.
	if err := rep1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	rep1.Wait()
	drive("after replica kill", 22)

	// The proxy must have demoted the dead backend by now.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := http.Get(proxyURL + "/-/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Healthy int `json:"healthy"`
		}
		if err := json.NewDecoder(res.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if health.Healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy never demoted the killed replica (healthy=%d)", health.Healthy)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Per-model Prometheus scrape on the surviving replica: both models
	// must expose request series with traffic, proving the per-model label
	// dimension end to end through real binaries.
	res, err := http.Get("http://" + addr2 + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseText(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"alpha", "beta"} {
		v, ok := exp.Value("udt_model_requests_total",
			obs.Label{Key: "model", Value: model}, obs.Label{Key: "endpoint", Value: "classify"})
		if !ok || v <= 0 {
			t.Errorf("surviving replica: udt_model_requests_total{model=%q,endpoint=classify} = %v, %v", model, v, ok)
		}
		if v, ok := exp.Value("udt_registry_generation", obs.Label{Key: "model", Value: model}); !ok || v != 1 {
			t.Errorf("surviving replica: udt_registry_generation{model=%q} = %v, %v", model, v, ok)
		}
	}
	if v, ok := exp.Value("udt_registry_models"); !ok || v != 2 {
		t.Errorf("surviving replica: udt_registry_models = %v, %v", v, ok)
	}

	// And the proxy's own exposition reflects the failover.
	pres, err := http.Get(proxyURL + "/-/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	pblob, err := io.ReadAll(pres.Body)
	pres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pexp, err := obs.ParseText(pblob)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pexp.Value("udtproxy_backend_healthy", obs.Label{Key: "backend", Value: "http://" + addr1}); !ok || v != 0 {
		t.Errorf("proxy: dead backend healthy gauge = %v, %v, want 0", v, ok)
	}
	if v, ok := pexp.Value("udtproxy_backend_healthy", obs.Label{Key: "backend", Value: "http://" + addr2}); !ok || v != 1 {
		t.Errorf("proxy: live backend healthy gauge = %v, %v, want 1", v, ok)
	}
}
