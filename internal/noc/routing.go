package noc

// Port indexes the five router ports of Figure 2.
type Port int

// Router ports. Local connects the router to its IP core.
const (
	East Port = iota
	West
	North
	South
	Local
	numPorts
)

var portNames = [...]string{"E", "W", "N", "S", "L"}

// String returns the single-letter port name used in Figure 2.
func (p Port) String() string {
	if p < 0 || int(p) >= len(portNames) {
		return "?"
	}
	return portNames[p]
}

// RoutingFunc decides the output port a packet takes at router `here`
// towards destination dst, given the input port it arrived on. It must
// be deterministic, because a router calls it once per header, when
// the header reaches the head of its buffer, and deadlock-free on a
// mesh.
type RoutingFunc func(here, dst Addr, in Port) Port

// RouteXY is the deterministic XY algorithm the paper employs: correct
// the X coordinate first, then Y, then deliver locally. Being
// dimension-ordered it is deadlock-free on a mesh.
func RouteXY(here, dst Addr, _ Port) Port {
	switch {
	case dst.X > here.X:
		return East
	case dst.X < here.X:
		return West
	case dst.Y > here.Y:
		return North
	case dst.Y < here.Y:
		return South
	default:
		return Local
	}
}

// RouteYX corrects Y before X. It is also dimension-ordered and
// deadlock-free; it exists for the routing-algorithm ablation bench.
func RouteYX(here, dst Addr, _ Port) Port {
	switch {
	case dst.Y > here.Y:
		return North
	case dst.Y < here.Y:
		return South
	case dst.X > here.X:
		return East
	case dst.X < here.X:
		return West
	default:
		return Local
	}
}

// RouteWestFirst is the partially adaptive west-first turn-model
// algorithm: any westward correction happens first; afterwards the
// packet may move east/north/south, preferring the dimension with the
// larger remaining distance. Used in the routing ablation.
func RouteWestFirst(here, dst Addr, _ Port) Port {
	if dst.X < here.X {
		return West
	}
	dx, dy := dst.X-here.X, dst.Y-here.Y
	switch {
	case dx == 0 && dy == 0:
		return Local
	case dy == 0:
		return East
	case dx == 0 && dy > 0:
		return North
	case dx == 0:
		return South
	case dx >= abs(dy):
		return East
	case dy > 0:
		return North
	default:
		return South
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// HopCount is the number of routers on the minimal XY path from src to
// dst, source and target included — the "n" of the paper's latency
// formula.
func HopCount(src, dst Addr) int {
	return abs(dst.X-src.X) + abs(dst.Y-src.Y) + 1
}
