package pisa_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"p4auth/internal/bench"
	"p4auth/internal/pisa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/usage.golden")

// registerName matches the register an access-count error names. Several
// registers can break the one-access-per-pass rule in one program; the
// golden pins that the rule fires, not which of them the message names.
var registerName = regexp.MustCompile(`register "[^"]*"`)

// TestUsageGolden pins Compiled.Usage for every in-tree program on both
// target profiles, plus the Table II and digest-ablation reports built
// from it. Usage drives the resource tables and the modeled per-packet
// Cost, so a compiler refactor must leave this file unchanged.
func TestUsageGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range inTreeSwitches(t) {
		for _, profile := range []pisa.Profile{pisa.TofinoProfile(), pisa.BMv2Profile()} {
			c, err := pisa.Compile(s.sw.Compiled().Program, profile)
			if err != nil {
				msg := registerName.ReplaceAllString(err.Error(), `register "…"`)
				fmt.Fprintf(&b, "%s %s: error: %s\n", s.name, profile.Name, msg)
				continue
			}
			fmt.Fprintf(&b, "%s %s: %+v\n", s.name, profile.Name, c.Usage)
		}
	}
	for _, gen := range []func() (*bench.Report, error){bench.TableII, bench.AblationDigest} {
		rep, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			fmt.Fprintf(&b, "%s: %s\n", rep.ID, strings.Join(row, " | "))
		}
	}

	path := filepath.Join("testdata", "usage.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("usage differs from %s (rerun with -update only if the change is meant to move it):\n--- got\n%s--- want\n%s", path, got, want)
	}
}
