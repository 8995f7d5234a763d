package analysis

// SARIF output: the static-analysis interchange format GitHub code
// scanning ingests (upload-sarif). pgalint emits the minimal conforming
// subset of SARIF 2.1.0 — one run, one tool driver carrying the rule
// metadata, one result per diagnostic with a physical location relative
// to %SRCROOT% (the repository checkout root) — so findings annotate
// pull requests instead of living in CI logs.

import "encoding/json"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// SARIF renders diagnostics as a SARIF 2.1.0 log. The rule table is the
// analyzer registry plus the always-on ignore-justification check, in
// registry order; results follow the diagnostic order (file, line).
func SARIF(diags []Diagnostic, analyzers []*Analyzer) ([]byte, error) {
	driver := sarifDriver{
		Name:           "pgalint",
		InformationURI: "https://github.com/pga/pga#pgalint",
		Rules:          []sarifRule{},
	}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
	}
	driver.Rules = append(driver.Rules, sarifRule{
		ID: "ignore",
		ShortDescription: sarifText{Text: "every //pgalint:ignore directive must name " +
			"existing rules and carry a justification; a bare or misnamed ignore is itself a finding"},
	})

	results := []sarifResult{}
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       d.File,
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   d.Line,
						StartColumn: d.Col,
					},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	return json.MarshalIndent(log, "", "  ")
}
