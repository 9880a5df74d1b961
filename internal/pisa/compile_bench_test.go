package pisa_test

import (
	"testing"

	"p4auth/internal/deploy"
	"p4auth/internal/hula"
	"p4auth/internal/pisa"
)

var compiledSink *pisa.Compiled

// BenchmarkCompile measures Compile (validation, name resolution, stage
// placement and resource accounting) on the two largest in-tree programs:
// the deploy P4Auth shell on Tofino and secure HULA on BMv2.
func BenchmarkCompile(b *testing.B) {
	d, err := deploy.Build(deploy.SwitchSpec{Name: "s1", Ports: 8,
		Registers: []*pisa.RegisterDef{{Name: "app_state", Width: 32, Entries: 16}}})
	if err != nil {
		b.Fatal(err)
	}
	hp, _, err := hula.BuildProgram(hula.DefaultParams(1, 8))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		prog    *pisa.Program
		profile pisa.Profile
	}{
		{"deploy_tofino", d.Host.SW.Compiled().Program, pisa.TofinoProfile()},
		{"hula_bmv2", hp, pisa.BMv2Profile()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := pisa.Compile(bc.prog, bc.profile)
				if err != nil {
					b.Fatal(err)
				}
				compiledSink = c
			}
		})
	}
}
