//go:build race

package hypergraph

// raceEnabled reports whether this test binary was built with the race
// detector. The differential test runs fewer instances under -race: the
// instrumentation multiplies its runtime without adding coverage of the
// concurrent paths, which every instance exercises alike.
const raceEnabled = true
