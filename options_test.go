package star

import (
	"reflect"
	"testing"

	"star/internal/baseline"
	"star/internal/bench"
	"star/internal/client"
	"star/internal/core"
	"star/internal/simnet"
	"star/internal/tcpnet"
)

// TestOptionCeilings pins how many fields each configuration type has.
// Every field is an option tests and benchmarks must cover; one is worth
// adding only where two callers need different values. A new field fails
// here until its ceiling is raised on purpose; a removed one, until the
// ceiling is lowered to match.
func TestOptionCeilings(t *testing.T) {
	for _, c := range []struct {
		typ     reflect.Type
		ceiling int
	}{
		{reflect.TypeOf(core.Config{}), 18},
		{reflect.TypeOf(Config{}), 8},
		{reflect.TypeOf(client.Config{}), 7},
		{reflect.TypeOf(tcpnet.Config{}), 9},
		{reflect.TypeOf(simnet.Config{}), 5},
		{reflect.TypeOf(baseline.Config{}), 8},
		{reflect.TypeOf(bench.SweepConfig{}), 4},
	} {
		if n := c.typ.NumField(); n != c.ceiling {
			t.Errorf("%s has %d fields, its ceiling is %d", c.typ, n, c.ceiling)
		}
	}
}
