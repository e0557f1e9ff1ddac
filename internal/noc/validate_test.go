package noc

import "testing"

func TestSendRejectsOffMeshDestination(t *testing.T) {
	net, err := New(Defaults(3, 3), "")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ep, err := net.NewEndpoint(Addr{X: 0, Y: 0})
	if err != nil {
		t.Fatalf("NewEndpoint: %v", err)
	}
	for _, dst := range []Addr{{X: 3, Y: 0}, {X: 0, Y: 3}, {X: -1, Y: 0}, {X: 0, Y: -1}} {
		if _, err := ep.Send(dst, make([]uint16, 4)); err == nil {
			t.Errorf("Send to off-mesh %s accepted", dst)
		}
	}
	if _, err := ep.Send(Addr{X: 2, Y: 2}, make([]uint16, 4)); err != nil {
		t.Errorf("Send to valid corner rejected: %v", err)
	}
}

func TestConfigValidateExported(t *testing.T) {
	if err := Defaults(4, 4).Validate(); err != nil {
		t.Errorf("Defaults invalid: %v", err)
	}
	deepest := Defaults(16, 16)
	deepest.BufDepth = maxBufDepth
	if err := deepest.Validate(); err != nil {
		t.Errorf("the deepest buffer invalid: %v", err)
	}
	bad := []Config{
		{},
		Defaults(0, 4),
		Defaults(4, 0),
		Defaults(17, 4),
		{Width: 4, Height: 4, FlitBits: 9, BufDepth: 2, RouteCycles: 14, Routing: RouteXY},
		{Width: 4, Height: 4, FlitBits: 8, BufDepth: 0, RouteCycles: 14, Routing: RouteXY},
		{Width: 4, Height: 4, FlitBits: 8, BufDepth: maxBufDepth + 1, RouteCycles: 14, Routing: RouteXY},
		{Width: 4, Height: 4, FlitBits: 8, BufDepth: 2, RouteCycles: 2, Routing: RouteXY},
		{Width: 4, Height: 4, FlitBits: 8, BufDepth: 2, RouteCycles: 14, Routing: nil},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
}
