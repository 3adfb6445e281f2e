// Package ontology implements the DTDL (Digital Twins Definition
// Language) metamodel P-MoVE builds its HPC ontology on: the six classes
// Interface, Telemetry, Property, Command, Relationship and data schemas
// (paper §II). "Each Interface represents a standalone (sub)twin", and the
// KB models an HPC system as a hierarchy of such twins: node, socket, CPU,
// GPU, memory subsystem and so on, each a distinct digital twin.
//
// Telemetry is split into the paper's two subclasses: SWTelemetry
// (software/system-state metrics, always sampled at low frequency) and
// HWTelemetry (PMU metrics, sampled at high frequency during kernel
// executions).
package ontology

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"pmove/internal/jsonld"
)

// DTDLContext is the @context of every DTDL v2 interface.
const DTDLContext = "dtmi:dtdl:context;2"

// Metamodel class names.
const (
	ClassInterface    = "Interface"
	ClassProperty     = "Property"
	ClassTelemetry    = "Telemetry"
	ClassSWTelemetry  = "SWTelemetry" // P-MoVE extension of Telemetry
	ClassHWTelemetry  = "HWTelemetry" // P-MoVE extension of Telemetry
	ClassCommand      = "Command"
	ClassRelationship = "Relationship"
	ClassComponent    = "Component"
)

// dtmiRe validates Digital Twin Model Identifiers:
// "dtmi:" segment(":" segment)* ";" version, where segments start with a
// letter or underscore. P-MoVE's scheme also allows digits inside segments
// (e.g. dtmi:dt:cn1:gpu0;1 of Listing 4).
var dtmiRe = regexp.MustCompile(`^dtmi:[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)*;[1-9][0-9]*$`)

// ValidateDTMI checks a digital twin model identifier.
func ValidateDTMI(id string) error {
	if !dtmiRe.MatchString(id) {
		return fmt.Errorf("ontology: invalid DTMI %q", id)
	}
	if len(id) > 2048 {
		return fmt.Errorf("ontology: DTMI longer than 2048 characters")
	}
	return nil
}

// DTMI builds a P-MoVE identifier: dtmi:dt:<segments...>;<version>.
func DTMI(version int, segments ...string) (string, error) {
	if len(segments) == 0 {
		return "", fmt.Errorf("ontology: DTMI needs at least one segment")
	}
	id := "dtmi:dt:" + strings.Join(segments, ":") + fmt.Sprintf(";%d", version)
	if err := ValidateDTMI(id); err != nil {
		return "", err
	}
	return id, nil
}

// Content is one entry of an Interface's contents: a Property, Telemetry,
// Command, Relationship or Component, discriminated by Type.
type Content struct {
	ID   string `json:"@id,omitempty"`
	Type string `json:"@type"`
	Name string `json:"name"`

	// Property fields.
	Schema      string `json:"schema,omitempty"`
	Description any    `json:"description,omitempty"`
	Writable    bool   `json:"writable,omitempty"`

	// Telemetry fields (P-MoVE extensions of Listing 4).
	PMUName     string `json:"PMUName,omitempty"`
	SamplerName string `json:"SamplerName,omitempty"`
	DBName      string `json:"DBName,omitempty"`
	FieldName   string `json:"FieldName,omitempty"`
	Unit        string `json:"unit,omitempty"`

	// Relationship fields.
	Target          string `json:"target,omitempty"`
	MinMultiplicity int    `json:"minMultiplicity,omitempty"`
	MaxMultiplicity int    `json:"maxMultiplicity,omitempty"`

	// Command fields.
	Request  *CommandPayload `json:"request,omitempty"`
	Response *CommandPayload `json:"response,omitempty"`
}

// CommandPayload describes a Command's request or response schema.
type CommandPayload struct {
	Name   string `json:"name"`
	Schema string `json:"schema"`
}

// Validate checks the content entry against its class rules.
func (c *Content) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("ontology: content has no name")
	}
	if c.ID != "" {
		if err := ValidateDTMI(c.ID); err != nil {
			return err
		}
	}
	switch c.Type {
	case ClassProperty:
		// Properties carry a value in Description in the P-MoVE encoding;
		// schema optional.
	case ClassTelemetry, ClassSWTelemetry, ClassHWTelemetry:
		if c.SamplerName == "" {
			return fmt.Errorf("ontology: telemetry %q has no SamplerName", c.Name)
		}
		if c.DBName == "" {
			return fmt.Errorf("ontology: telemetry %q has no DBName", c.Name)
		}
	case ClassRelationship:
		if c.Target == "" {
			return fmt.Errorf("ontology: relationship %q has no target", c.Name)
		}
		if err := ValidateDTMI(c.Target); err != nil {
			return fmt.Errorf("ontology: relationship %q: %w", c.Name, err)
		}
	case ClassCommand:
		// Request/response optional.
	case ClassComponent:
		if c.Schema == "" {
			return fmt.Errorf("ontology: component %q has no schema", c.Name)
		}
	default:
		return fmt.Errorf("ontology: unknown content class %q on %q", c.Type, c.Name)
	}
	return nil
}

// Interface is a DTDL interface: one standalone (sub)twin.
type Interface struct {
	Context     string    `json:"@context"`
	ID          string    `json:"@id"`
	Type        string    `json:"@type"`
	DisplayName string    `json:"displayName,omitempty"`
	Comment     string    `json:"comment,omitempty"`
	Extends     []string  `json:"extends,omitempty"`
	Contents    []Content `json:"contents"`
}

// NewInterface creates an empty interface with the standard context.
func NewInterface(id, displayName string) (*Interface, error) {
	if err := ValidateDTMI(id); err != nil {
		return nil, err
	}
	return &Interface{
		Context:     DTDLContext,
		ID:          id,
		Type:        ClassInterface,
		DisplayName: displayName,
	}, nil
}

// Validate checks the interface and all contents.
func (i *Interface) Validate() error {
	if i.Type != ClassInterface {
		return fmt.Errorf("ontology: %q has @type %q, want Interface", i.ID, i.Type)
	}
	if i.Context != DTDLContext {
		return fmt.Errorf("ontology: %q has @context %q, want %s", i.ID, i.Context, DTDLContext)
	}
	if err := ValidateDTMI(i.ID); err != nil {
		return err
	}
	for _, e := range i.Extends {
		if err := ValidateDTMI(e); err != nil {
			return fmt.Errorf("ontology: %q extends invalid id: %w", i.ID, err)
		}
	}
	names := map[string]bool{}
	for k := range i.Contents {
		c := &i.Contents[k]
		if err := c.Validate(); err != nil {
			return fmt.Errorf("ontology: %q: %w", i.ID, err)
		}
		key := c.Type + "/" + c.Name
		if c.Type == ClassRelationship {
			// Relationships of the same name (e.g. "contains") may repeat
			// with distinct targets.
			key += "/" + c.Target
		}
		if names[key] {
			return fmt.Errorf("ontology: %q has duplicate %s %q", i.ID, c.Type, c.Name)
		}
		names[key] = true
	}
	return nil
}

// AddProperty appends a Property content with an auto-derived id.
func (i *Interface) AddProperty(name string, value any) {
	i.Contents = append(i.Contents, Content{
		ID:          childID(i.ID, fmt.Sprintf("property%d", i.countOf(ClassProperty))),
		Type:        ClassProperty,
		Name:        name,
		Description: value,
	})
}

// AddSWTelemetry appends a software telemetry definition.
func (i *Interface) AddSWTelemetry(name, samplerName, dbName, fieldName, desc string) {
	i.Contents = append(i.Contents, Content{
		ID:          childID(i.ID, fmt.Sprintf("telemetry%d", len(i.Contents))),
		Type:        ClassSWTelemetry,
		Name:        name,
		SamplerName: samplerName,
		DBName:      dbName,
		FieldName:   fieldName,
		Description: desc,
	})
}

// AddHWTelemetry appends a hardware telemetry definition.
func (i *Interface) AddHWTelemetry(name, pmuName, samplerName, dbName, fieldName, desc string) {
	i.Contents = append(i.Contents, Content{
		ID:          childID(i.ID, fmt.Sprintf("telemetry%d", len(i.Contents))),
		Type:        ClassHWTelemetry,
		Name:        name,
		PMUName:     pmuName,
		SamplerName: samplerName,
		DBName:      dbName,
		FieldName:   fieldName,
		Description: desc,
	})
}

// AddCommand appends a Command content — the DTDL class P-MoVE uses for
// actions a twin can execute (benchmark runs, observations).
func (i *Interface) AddCommand(name string, request, response *CommandPayload) {
	i.Contents = append(i.Contents, Content{
		ID:       childID(i.ID, fmt.Sprintf("command%d", i.countOf(ClassCommand))),
		Type:     ClassCommand,
		Name:     name,
		Request:  request,
		Response: response,
	})
}

// Commands returns the interface's Command contents.
func (i *Interface) Commands() []Content {
	var out []Content
	for _, c := range i.Contents {
		if c.Type == ClassCommand {
			out = append(out, c)
		}
	}
	return out
}

// AddRelationship appends a Relationship to a target interface.
func (i *Interface) AddRelationship(name, target string) {
	i.Contents = append(i.Contents, Content{
		ID:     childID(i.ID, "rel_"+name+fmt.Sprintf("%d", len(i.Contents))),
		Type:   ClassRelationship,
		Name:   name,
		Target: target,
	})
}

// countOf counts contents of a class.
func (i *Interface) countOf(class string) int {
	n := 0
	for _, c := range i.Contents {
		if c.Type == class {
			n++
		}
	}
	return n
}

// childID derives a child DTMI by appending a segment before the version.
func childID(parent, segment string) string {
	base, ver, ok := strings.Cut(parent, ";")
	if !ok {
		return parent + ":" + segment
	}
	return base + ":" + segment + ";" + ver
}

// Relationships returns the interface's Relationship contents.
func (i *Interface) Relationships() []Content {
	var out []Content
	for _, c := range i.Contents {
		if c.Type == ClassRelationship {
			out = append(out, c)
		}
	}
	return out
}

// Telemetries returns the telemetry contents, optionally filtered by class
// ("" for all telemetry kinds).
func (i *Interface) Telemetries(class string) []Content {
	var out []Content
	for _, c := range i.Contents {
		isTel := c.Type == ClassTelemetry || c.Type == ClassSWTelemetry || c.Type == ClassHWTelemetry
		if !isTel {
			continue
		}
		if class == "" || c.Type == class {
			out = append(out, c)
		}
	}
	return out
}

// Property returns the value of a named property, or nil.
func (i *Interface) Property(name string) any {
	for _, c := range i.Contents {
		if c.Type == ClassProperty && c.Name == name {
			return c.Description
		}
	}
	return nil
}

// MarshalJSONLD renders the interface as a JSON-LD document.
func (i *Interface) MarshalJSONLD() (jsonld.Document, error) {
	b, err := json.Marshal(i)
	if err != nil {
		return nil, fmt.Errorf("ontology: %w", err)
	}
	return jsonld.Parse(b)
}

// ParseInterface decodes an interface from JSON and validates it.
func ParseInterface(b []byte) (*Interface, error) {
	var i Interface
	if err := json.Unmarshal(b, &i); err != nil {
		return nil, fmt.Errorf("ontology: %w", err)
	}
	if err := i.Validate(); err != nil {
		return nil, err
	}
	return &i, nil
}
