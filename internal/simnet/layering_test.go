package simnet

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimnetDoesNotImportTelemetry walks the simulator core's transitive
// in-module imports: telemetry reads the engine, never the other way
// round, so internal/telemetry must not be among them.
func TestSimnetDoesNotImportTelemetry(t *testing.T) {
	const module, forbidden = "switchv2p/", "switchv2p/internal/telemetry"
	seen := map[string]bool{}
	var walk func(path string, chain []string)
	walk = func(path string, chain []string) {
		if seen[path] || !strings.HasPrefix(path, module) {
			return
		}
		seen[path] = true
		chain = append(chain, path)
		if path == forbidden {
			t.Errorf("simnet imports telemetry: %s", strings.Join(chain, " -> "))
			return
		}
		// The test runs in internal/simnet, two levels below the module root.
		pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			walk(imp, chain)
		}
	}
	walk("switchv2p/internal/simnet", nil)
	if len(seen) < 3 {
		t.Fatalf("walked only %d packages; the import walk is broken", len(seen))
	}
}
