package analysis

import "testing"

func TestOracleImport(t *testing.T) {
	RunTest(t, OracleImport, "oracle/engine", "oracle/soa")
}
