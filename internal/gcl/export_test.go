package gcl

// Exported for the differential tests in package gcl_test, which import
// generators (internal/fleet) that themselves import gcl.
var (
	OracleCompile = oracleCompile
	OracleEval    = oracleEval
)
