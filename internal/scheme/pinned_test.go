package scheme_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"flexile/internal/experiments"
	"flexile/internal/obs"
	"flexile/internal/scheme"
	"flexile/internal/scheme/cvarflow"
	"flexile/internal/scheme/ffc"
	"flexile/internal/scheme/ip"
	"flexile/internal/scheme/scenbest"
	"flexile/internal/scheme/swan"
	"flexile/internal/scheme/teavar"
	"flexile/internal/te"
)

// pinnedRun is one scheme's answer on one instance: the SHA-256 of its
// routing's float bits, in (scenario, class, pair, tunnel) order, and the
// LP solves and pivots its Route made.
type pinnedRun struct {
	digest         string
	solves, pivots int64
}

// TestSchemesPinned pins every baseline's routing, bit for bit, and its LP
// solve and pivot counts on the Tiny-scale Sprint and B4 instances. Each
// baseline builds its LPs over the routing polytope in te (TunnelCols,
// CapacityRows, RoutingOf); a change there that reorders a column, a row
// or an entry moves a pivot count or a digest here. The direct IP runs on
// B4 single-class only: on Sprint and on the two-class instances its
// branch and bound takes a minute.
func TestSchemesPinned(t *testing.T) {
	type instance struct {
		topo     string
		twoClass bool
	}
	cases := []struct {
		inst   instance
		scheme func() scheme.Scheme
		want   pinnedRun
	}{
		{instance{"Sprint", false}, func() scheme.Scheme { return &swan.Throughput{} }, pinnedRun{"98ca2eda22cb44685d931862cfd910de0229029f93e1292f506e64817962d4a4", 12, 543}},
		{instance{"Sprint", false}, func() scheme.Scheme { return &swan.Maxmin{} }, pinnedRun{"4e9739e1e197b4975598699d1afc4da23943c04ba1a8d43c2e3dd910e82ef6a5", 216, 1133}},
		{instance{"Sprint", false}, func() scheme.Scheme { return &scenbest.Scheme{} }, pinnedRun{"b79cc48cf08cd3d2214ec66bb78ec7e7e55fb36c78e9429136619f31cc3c403e", 216, 1136}},
		{instance{"Sprint", true}, func() scheme.Scheme { return &swan.Throughput{} }, pinnedRun{"e3461b8f8ffc8e0b23fd1f795fc84d59f365902858a93f4543f05ad64921e187", 24, 1096}},
		{instance{"Sprint", true}, func() scheme.Scheme { return &swan.Maxmin{} }, pinnedRun{"33210e307d35253274327a94f2ec49f91407528d12b65caad4a8af2d285579e3", 432, 2534}},
		{instance{"Sprint", true}, func() scheme.Scheme { return &scenbest.Scheme{} }, pinnedRun{"6877f7cd6e1937fcf80ead51c405e8db2cd7dbee3b7f7cb57b274c2aa8825851", 432, 3108}},
		{instance{"B4", false}, func() scheme.Scheme { return &swan.Throughput{} }, pinnedRun{"ad68b18eb2f4bdc2929f1dd18c53293df021003135412780d8cfe463fbf00ae7", 12, 776}},
		{instance{"B4", false}, func() scheme.Scheme { return &swan.Maxmin{} }, pinnedRun{"43f15094447c2c69e5f6c985b156199b8bcec42b9345633fc44dd52f34f4271d", 216, 1760}},
		{instance{"B4", false}, func() scheme.Scheme { return &scenbest.Scheme{} }, pinnedRun{"237d5e4545c8d2d1f746dba68cee0e8fa58d480fa59ff1323e498ceac4916a3f", 216, 1735}},
		{instance{"B4", true}, func() scheme.Scheme { return &swan.Throughput{} }, pinnedRun{"6675060ec9fe8d1a361973126978f7074b6ad0d41349d8efa48aa71262fa019d", 24, 1496}},
		{instance{"B4", true}, func() scheme.Scheme { return &swan.Maxmin{} }, pinnedRun{"f3ae3a10433ba47a98344dd280eabce4db98b94fa9c0abe11c82c46d8ba6f93f", 432, 3579}},
		{instance{"B4", true}, func() scheme.Scheme { return &scenbest.Scheme{} }, pinnedRun{"32cb2e87ec89efa50ecc5aa20afe8d7f43736417e253290610ceb022c9c105cc", 432, 4343}},
		{instance{"Sprint", false}, func() scheme.Scheme { return &teavar.Scheme{} }, pinnedRun{"bcd6f326e0c42b3df15c53fd424bde37fda58ead37f1737aaf8aa0dabecae599", 1, 991}},
		{instance{"Sprint", false}, func() scheme.Scheme { return &cvarflow.St{} }, pinnedRun{"c907def99a1840964a438882548d95f00d6edb245e48465c2b5457bca73cb159", 1, 273}},
		{instance{"Sprint", false}, func() scheme.Scheme { return &cvarflow.Ad{} }, pinnedRun{"cb5b0e0680f2f45f427ea1f38bc143ad6c049852b28a46b9fe223c5672bda633", 1, 1729}},
		{instance{"Sprint", false}, func() scheme.Scheme { return &ffc.Scheme{F: 1} }, pinnedRun{"cf08203d878ebc1f27569174e26a5bdd0e42d6e2d72e8428148022461ddaadf5", 2, 505}},
		{instance{"B4", false}, func() scheme.Scheme { return &teavar.Scheme{} }, pinnedRun{"0231b7c5561d2e5149e6ffa49d847aa0791313c0ea1be54fbd587c2a06fe2b3c", 1, 593}},
		{instance{"B4", false}, func() scheme.Scheme { return &cvarflow.St{} }, pinnedRun{"0396a1f37516041f0edd5694b389dba1ed87825112aebd6b0059cb3f85ff7dd7", 1, 416}},
		{instance{"B4", false}, func() scheme.Scheme { return &cvarflow.Ad{} }, pinnedRun{"6737a1423fc960819b74d63f121d3dab22c3bc445c383a5c28495bf249dd58eb", 1, 2935}},
		{instance{"B4", false}, func() scheme.Scheme { return &ffc.Scheme{F: 1} }, pinnedRun{"6a0a55b2ad9f9bd05473ded156046053689f327c43759dfab826c615cdc6f937", 2, 386}},
		{instance{"B4", false}, func() scheme.Scheme { return &ip.Scheme{} }, pinnedRun{"8fccc4c4844113ad7cab89734579290a65a0b414dc3be053430066e044e56432", 2, 2410}},
	}
	built := map[instance]*te.Instance{}
	for _, tc := range cases {
		inst := built[tc.inst]
		if inst == nil {
			cfg := experiments.Config{Scale: experiments.Tiny, Seed: 1}
			build := cfg.SingleClass
			if tc.inst.twoClass {
				build = cfg.TwoClass
			}
			var err error
			if inst, err = build(tc.inst.topo); err != nil {
				t.Fatal(err)
			}
			built[tc.inst] = inst
		}
		s := tc.scheme()
		col := obs.New()
		obs.SetGlobal(col)
		r, err := s.Route(inst)
		obs.SetGlobal(nil)
		if err != nil {
			t.Fatalf("%s on %v: %v", s.Name(), tc.inst, err)
		}
		m := col.Snapshot().LP
		got := pinnedRun{routingDigest(r), m.Solves, m.Pivots}
		if got != tc.want {
			t.Errorf("%s on %s (two-class %v): got %#v, want %#v", s.Name(), tc.inst.topo, tc.inst.twoClass, got, tc.want)
		}
	}
}

// routingDigest hashes the float bits of every allocation in r.
func routingDigest(r *te.Routing) string {
	h := sha256.New()
	var b [8]byte
	for _, xq := range r.X {
		for _, xk := range xq {
			for _, xi := range xk {
				for _, x := range xi {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
