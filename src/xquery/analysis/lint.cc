#include "xquery/analysis/lint.h"

#include <utility>

#include "browser/page.h"
#include "xml/xml_parser.h"
#include "xquery/parser.h"

namespace xqib::xquery::analysis {

namespace {

// A parse failure surfaces as an error diagnostic so lint output has one
// shape. The parser already embeds the position in its message; line 0
// suppresses Render()'s own span suffix.
Diagnostic ParseErrorDiagnostic(const Status& status) {
  Diagnostic d;
  d.code = status.code();
  d.severity = Severity::kError;
  d.message = status.message();
  d.span.line = 0;
  d.span.column = 0;
  return d;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// function_effects is an ordered map, so the dump is deterministic.
std::vector<std::string> EffectLines(const AnalysisFacts& facts) {
  std::vector<std::string> out;
  for (const auto& [key, eff] : facts.function_effects) {
    out.push_back(key + ": " + RenderEffects(eff));
  }
  out.push_back("page reads: " + RenderEffectSet(facts.all_reads));
  return out;
}

}  // namespace

bool LintReport::has_errors() const {
  for (const LintUnit& unit : units) {
    if (HasErrors(unit.diagnostics)) return true;
  }
  return false;
}

bool LintReport::has_warnings() const {
  for (const LintUnit& unit : units) {
    for (const Diagnostic& d : unit.diagnostics) {
      if (d.severity == Severity::kWarning) return true;
    }
  }
  return false;
}

std::vector<std::string> LintReport::RenderAll() const {
  std::vector<std::string> out;
  for (const LintUnit& unit : units) {
    for (const Diagnostic& d : unit.diagnostics) {
      out.push_back(unit.label + ": " + std::string(SeverityName(d.severity)) +
                    ": " + d.Render());
    }
  }
  return out;
}

std::vector<std::string> LintReport::RenderEffects() const {
  std::vector<std::string> out;
  for (const LintUnit& unit : units) {
    for (const std::string& line : unit.effects) {
      out.push_back(unit.label + ": " + line);
    }
  }
  return out;
}

std::string LintReport::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const LintUnit& unit : units) {
    if (!first) out += ",";
    first = false;
    out += "{\"unit\":\"" + JsonEscape(unit.label) +
           "\",\"diagnostics\":" + DiagnosticsToJson(unit.diagnostics) + "}";
  }
  out += "]";
  return out;
}

LintReport LintQuery(const std::string& source) {
  LintReport report;
  LintUnit unit;
  unit.label = "query";
  Result<std::unique_ptr<Module>> module = ParseModule(source);
  if (!module.ok()) {
    unit.diagnostics.push_back(ParseErrorDiagnostic(module.status()));
  } else {
    Analyzer analyzer;
    AnalysisResult result = analyzer.Analyze(**module);
    unit.diagnostics = std::move(result.diagnostics);
    unit.effects = EffectLines(result.facts);
  }
  report.units.push_back(std::move(unit));
  return report;
}

Result<LintReport> LintXhtml(const std::string& page_source) {
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> doc,
                      xml::ParseDocument(page_source));
  LintReport report;

  // Parse every XQuery script first: like the plug-in, all script blocks
  // share one static context.
  struct ParsedScript {
    std::string label;
    std::unique_ptr<Module> module;  // null when the script failed to parse
    std::vector<Diagnostic> parse_errors;
  };
  std::vector<ParsedScript> parsed;
  size_t index = 0;
  for (const browser::Script& script : browser::ExtractScripts(doc.get())) {
    if (script.language != browser::ScriptLanguage::kXQuery &&
        script.language != browser::ScriptLanguage::kXQueryP) {
      continue;
    }
    ++index;
    ParsedScript p;
    p.label = "script " + std::to_string(index);
    Result<std::unique_ptr<Module>> module = ParseModule(script.code);
    if (module.ok()) {
      p.module = std::move(*module);
    } else {
      p.parse_errors.push_back(ParseErrorDiagnostic(module.status()));
    }
    parsed.push_back(std::move(p));
  }

  for (size_t i = 0; i < parsed.size(); ++i) {
    LintUnit unit;
    unit.label = parsed[i].label;
    unit.diagnostics = std::move(parsed[i].parse_errors);
    if (parsed[i].module != nullptr) {
      Analyzer analyzer;
      for (size_t j = 0; j < parsed.size(); ++j) {
        if (j != i && parsed[j].module != nullptr) {
          analyzer.AddContextModule(*parsed[j].module);
        }
      }
      AnalysisResult result = analyzer.Analyze(*parsed[i].module);
      for (auto& d : result.diagnostics) {
        unit.diagnostics.push_back(std::move(d));
      }
      unit.effects = EffectLines(result.facts);
    }
    report.units.push_back(std::move(unit));
  }

  // Inline handlers see all scripts as context (they may call functions
  // declared in any block). Only XQuery-looking handlers are ours; the
  // rest belong to the JavaScript engine.
  for (const browser::InlineHandler& handler :
       browser::ExtractInlineHandlers(doc.get())) {
    if (!browser::LooksLikeXQueryHandler(handler.code)) continue;
    LintUnit unit;
    unit.label = handler.event + " handler \"" + handler.code + "\"";
    Result<std::unique_ptr<Module>> module =
        ParseModule(browser::RewriteInlineHandler(handler.code));
    if (!module.ok()) {
      unit.diagnostics.push_back(ParseErrorDiagnostic(module.status()));
    } else {
      Analyzer analyzer;
      for (const ParsedScript& p : parsed) {
        if (p.module != nullptr) analyzer.AddContextModule(*p.module);
      }
      AnalysisResult result = analyzer.Analyze(**module);
      unit.diagnostics = std::move(result.diagnostics);
      unit.effects = EffectLines(result.facts);
    }
    report.units.push_back(std::move(unit));
  }
  return report;
}

}  // namespace xqib::xquery::analysis
