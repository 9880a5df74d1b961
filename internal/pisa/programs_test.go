package pisa_test

import (
	"testing"

	"p4auth/internal/blink"
	"p4auth/internal/deploy"
	"p4auth/internal/flowradar"
	"p4auth/internal/hula"
	"p4auth/internal/netcache"
	"p4auth/internal/netwarden"
	"p4auth/internal/pisa"
	"p4auth/internal/routescout"
	"p4auth/internal/silkroad"
	"p4auth/internal/sketch"
)

// inTreeSwitch is one of the repository's data planes as its own package
// deploys it: the program, compiled for the package's target and booted
// (table entries, boot registers, keys where the system establishes them).
type inTreeSwitch struct {
	name string
	sw   *pisa.Switch
}

// inTreeSwitches builds every in-tree program that a package exports a
// way to reach, in a fixed order.
func inTreeSwitches(tb testing.TB) []inTreeSwitch {
	tb.Helper()
	var out []inTreeSwitch
	add := func(name string, sw *pisa.Switch, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, inTreeSwitch{name: name, sw: sw})
	}

	l3, err := pisa.NewSwitch(pisa.L3TestProgram(), pisa.TofinoProfile())
	add("l3_test", l3, err)

	regs := []*pisa.RegisterDef{{Name: "app_state", Width: 32, Entries: 16}}
	for _, p := range []struct {
		name    string
		profile pisa.Profile
	}{{"deploy_tofino_crc32", pisa.TofinoProfile()}, {"deploy_bmv2_halfsiphash", pisa.BMv2Profile()}} {
		d, err := deploy.Build(deploy.SwitchSpec{Name: "s1", Ports: 4, Profile: p.profile, Registers: regs})
		if err != nil {
			tb.Fatalf("%s: %v", p.name, err)
		}
		add(p.name, d.Host.SW, nil)
	}
	for _, secure := range []bool{true, false} {
		suffix := map[bool]string{true: "_secure", false: "_insecure"}[secure]
		hp := hula.DefaultParams(1, 4)
		hp.Secure = secure
		h, err := hula.NewSwitch("h1", hp, 7)
		if err != nil {
			tb.Fatalf("hula%s: %v", suffix, err)
		}
		add("hula"+suffix, h.Host.SW, nil)

		hh, err := sketch.NewHH(sketch.DefaultHHParams(secure))
		if err != nil {
			tb.Fatalf("sketch_hh%s: %v", suffix, err)
		}
		add("sketch_hh"+suffix, hh.Host.SW, nil)

		fr, err := flowradar.New(flowradar.DefaultParams(secure))
		if err != nil {
			tb.Fatalf("flowradar%s: %v", suffix, err)
		}
		add("flowradar"+suffix, fr.Host.SW, nil)

		bl, err := blink.New(blink.DefaultParams(secure), 1, 2)
		if err != nil {
			tb.Fatalf("blink%s: %v", suffix, err)
		}
		add("blink"+suffix, bl.Host.SW, nil)

		nc, err := netcache.New(netcache.DefaultParams(secure))
		if err != nil {
			tb.Fatalf("netcache%s: %v", suffix, err)
		}
		add("netcache"+suffix, nc.Host.SW, nil)

		nw, err := netwarden.New(netwarden.DefaultParams(secure))
		if err != nil {
			tb.Fatalf("netwarden%s: %v", suffix, err)
		}
		add("netwarden"+suffix, nw.Host.SW, nil)

		sr, err := silkroad.New(silkroad.DefaultParams(secure))
		if err != nil {
			tb.Fatalf("silkroad%s: %v", suffix, err)
		}
		add("silkroad"+suffix, sr.Host.SW, nil)
	}
	for _, mode := range []struct {
		name string
		mode routescout.Mode
	}{{"routescout_p4auth", routescout.ModeP4Auth}, {"routescout_insecure", routescout.ModeInsecure}} {
		rs, err := routescout.New(routescout.DefaultConfig(mode.mode))
		if err != nil {
			tb.Fatalf("%s: %v", mode.name, err)
		}
		add(mode.name, rs.Switch.Host.SW, nil)
	}
	return out
}
