package adaptive

import (
	"testing"

	"repro/internal/compress"
)

func TestPolicyThresholds(t *testing.T) {
	m := NewMonitor()
	p := NewPolicy(m, 1000)
	cases := []struct {
		appRAM int64
		want   compress.Level
	}{
		{0, compress.None},
		{499, compress.None},
		{500, compress.Light},
		{749, compress.Light},
		{750, compress.Heavy},
		{1000, compress.Heavy},
	}
	for _, c := range cases {
		m.SetAppUsage(Usage{AppRAM: c.appRAM})
		if got := p.CompressionLevel(); got != c.want {
			t.Errorf("appRAM=%d: level %v, want %v", c.appRAM, got, c.want)
		}
	}
}

func TestPolicyUnlimited(t *testing.T) {
	p := NewPolicy(NewMonitor(), 0)
	if p.CompressionLevel() != compress.None {
		t.Fatal("unlimited policy should not compress")
	}
	if p.PreferMergeJoin(1 << 40) {
		t.Fatal("unlimited policy should not prefer merge join")
	}
}

func TestPreferMergeJoin(t *testing.T) {
	m := NewMonitor()
	p := NewPolicy(m, 1000)
	m.SetAppUsage(Usage{AppRAM: 800})
	if !p.PreferMergeJoin(200) {
		t.Fatal("200-byte build with 200 free should prefer merge")
	}
	m.SetAppUsage(Usage{AppRAM: 100})
	if p.PreferMergeJoin(200) {
		t.Fatal("small build with plenty of free RAM should hash")
	}
}

func TestSelfRAMPositive(t *testing.T) {
	if SelfRAM() <= 0 {
		t.Fatal("SelfRAM returned non-positive")
	}
}
