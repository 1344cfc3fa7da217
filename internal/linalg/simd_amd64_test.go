package linalg

import "testing"

// TestDecideAVX2FMA table-tests the AVX2 decision on CPUID and XCR0
// words: the kernels need AVX, FMA and AVX2 on the CPU and the OS
// saving the YMM registers, and a missing piece keeps the scalar
// fallbacks.
func TestDecideAVX2FMA(t *testing.T) {
	const (
		ecx1 = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
		ebx7 = 1 << 5                // AVX2
		xcr0 = 0x07                  // x87, SSE, AVX
	)
	for _, tc := range []struct {
		name                    string
		maxID, ecx1, ebx7, xcr0 uint32
		want                    bool
	}{
		{"full set", 7, ecx1, ebx7, xcr0, true},
		{"full set, AVX-512 too", 0xd, ecx1, ebx7 | 1<<16, 0xE7, true},
		{"leaf 7 absent", 6, ecx1, ebx7, xcr0, false},
		{"no OSXSAVE", 7, ecx1 &^ (1 << 27), ebx7, xcr0, false},
		{"no FMA", 7, ecx1 &^ (1 << 12), ebx7, xcr0, false},
		{"no AVX", 7, ecx1 &^ (1 << 28), ebx7, xcr0, false},
		{"no AVX2", 7, ecx1, 0, xcr0, false},
		{"no YMM state", 7, ecx1, ebx7, xcr0 &^ (1 << 2), false},
		{"no SSE state", 7, ecx1, ebx7, xcr0 &^ (1 << 1), false},
	} {
		if got := decideAVX2FMA(tc.maxID, tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: decideAVX2FMA = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := detectAVX2FMA(); got != haveAVX2FMA {
		t.Fatalf("detectAVX2FMA = %v, but the package runs with AVX2 %v", got, haveAVX2FMA)
	}
	t.Logf("AVX2 kernels enabled: %v", haveAVX2FMA)
}
