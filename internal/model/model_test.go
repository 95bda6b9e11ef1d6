package model

import (
	"strings"
	"testing"
)

func TestCX3Valid(t *testing.T) {
	if err := CX3().Validate(); err != nil {
		t.Fatalf("CX3 default params invalid: %v", err)
	}
}

func TestUniformValid(t *testing.T) {
	if err := Uniform(10).Validate(); err != nil {
		t.Fatalf("Uniform(10) invalid: %v", err)
	}
}

func TestCX3Shape(t *testing.T) {
	p := CX3()
	// The paper's premise (§1): RDMA is at least an order of magnitude
	// slower than shared memory. A full verb is >= 2*wire + 2*service.
	verb := 2*p.RemoteWireNS + 2*p.NICServiceNS
	if verb < 10*p.LocalCASNS {
		t.Errorf("remote verb (%dns) not >=10x local CAS (%dns)", verb, p.LocalCASNS)
	}
	// Loopback is cheaper than the full network path but still far from
	// local memory speed.
	if p.LoopbackWireNS >= p.RemoteWireNS {
		t.Error("loopback wire should be cheaper than remote wire")
	}
	if p.LoopbackWireNS < 10*p.LocalReadNS {
		t.Error("loopback should still be much slower than a local read")
	}
	// QPC cache defaults to the ~450-connection knee from Wang et al. [31].
	if p.QPCCacheCap != 450 {
		t.Errorf("QPCCacheCap = %d, want 450", p.QPCCacheCap)
	}
	if !p.TornRCAS {
		t.Error("CX3 must model remote-RMW tearing by default (Table 1)")
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"read", func(p *Params) { p.LocalReadNS = 0 }, "LocalReadNS"},
		{"write", func(p *Params) { p.LocalWriteNS = -1 }, "LocalWriteNS"},
		{"cas", func(p *Params) { p.LocalCASNS = 0 }, "LocalCASNS"},
		{"fence", func(p *Params) { p.FenceNS = -1 }, "FenceNS"},
		{"spinmin", func(p *Params) { p.SpinPollMinNS = 0 }, "SpinPollMinNS"},
		{"spinmax", func(p *Params) { p.SpinPollMaxNS = p.SpinPollMinNS - 1 }, "SpinPollMaxNS"},
		{"wire", func(p *Params) { p.RemoteWireNS = 0 }, "RemoteWireNS"},
		{"loop", func(p *Params) { p.LoopbackWireNS = 0 }, "LoopbackWireNS"},
		{"nic", func(p *Params) { p.NICServiceNS = 0 }, "NICServiceNS"},
		{"lbrx", func(p *Params) { p.LoopbackRXThreshold = -1 }, "LoopbackRXThreshold"},
		{"lbalpha", func(p *Params) { p.LoopbackAlpha = -0.1 }, "LoopbackAlpha"},
		{"lbcap", func(p *Params) { p.LoopbackCap = 0.5 }, "LoopbackCap"},
		{"rrx", func(p *Params) { p.RemoteRXThreshold = -1 }, "RemoteRXThreshold"},
		{"ralpha", func(p *Params) { p.RemoteAlpha = -0.1 }, "RemoteAlpha"},
		{"rcap", func(p *Params) { p.RemoteCap = 0.5 }, "RemoteCap"},
		{"qpccap", func(p *Params) { p.QPCCacheCap = 0 }, "QPCCacheCap"},
		{"qpcmiss", func(p *Params) { p.QPCMissPenaltyNS = -1 }, "QPCMissPenaltyNS"},
		{"torngap", func(p *Params) { p.TornRCAS = true; p.TornGapNS = 0 }, "TornGapNS"},
	}
	for _, m := range mutations {
		p := CX3()
		m.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bad params", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %s", m.name, err, m.want)
		}
	}
}

// TestMinOpNS: the floor is CX3's local load and store (10 ns: one thread ends
// at most 780/10 + 1 = 79 operations in a 780 ns lookahead window), follows
// whichever memory-operation latency is
// lowest, and is positive on every valid model — it divides the stop guard's
// window. Costs that are not memory operations (fence, pause, NIC service)
// never lower it.
func TestMinOpNS(t *testing.T) {
	if got := CX3().MinOpNS(); got != 10 {
		t.Errorf("CX3 MinOpNS = %d, want 10", got)
	}
	if got := Uniform(7).MinOpNS(); got != 7 {
		t.Errorf("Uniform(7) MinOpNS = %d, want 7", got)
	}
	for _, m := range []struct {
		name string
		mut  func(*Params)
		want int64
	}{
		{"read", func(p *Params) { p.LocalReadNS = 3 }, 3},
		{"write", func(p *Params) { p.LocalWriteNS = 4 }, 4},
		{"cas", func(p *Params) { p.LocalCASNS = 5 }, 5},
		{"loopback wire", func(p *Params) { p.LoopbackWireNS = 6 }, 6},
		{"remote wire", func(p *Params) { p.RemoteWireNS = 2 }, 2},
		{"fence", func(p *Params) { p.FenceNS = 0 }, 10},
		{"pause", func(p *Params) { p.SpinPollMinNS = 1 }, 10},
		{"nic", func(p *Params) { p.NICServiceNS = 1 }, 10},
	} {
		p := CX3()
		m.mut(&p)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := p.MinOpNS(); got != m.want {
			t.Errorf("%s: MinOpNS = %d, want %d", m.name, got, m.want)
		}
	}
}

func TestValidateJoinsMultipleErrors(t *testing.T) {
	p := CX3()
	p.LocalReadNS = 0
	p.NICServiceNS = 0
	err := p.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "LocalReadNS") || !strings.Contains(err.Error(), "NICServiceNS") {
		t.Errorf("joined error missing a field: %v", err)
	}
}

func TestString(t *testing.T) {
	s := CX3().String()
	for _, frag := range []string{"model{", "torn=true", "nic="} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
