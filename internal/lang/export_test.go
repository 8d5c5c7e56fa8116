package lang

// Seams for the external tests: the oracle parser, and the sources the
// robustness tests generate.
var (
	RefParse   = refParse
	TokenSoups = tokenSoups
	Mutations  = mutations
)
