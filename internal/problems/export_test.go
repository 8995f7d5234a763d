package problems

// Registry exposes the catalogue to the external tests, which add a
// counting entry to it.
var Registry = registry
