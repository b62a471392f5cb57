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
    AnalysisResult result = AnalyzeProgram({module->get()});
    unit.diagnostics = std::move(result.diagnostics[0]);
    unit.effects = EffectLines(result.facts);
  }
  report.units.push_back(std::move(unit));
  return report;
}

Result<LintReport> LintXhtml(const std::string& page_source) {
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> doc,
                      xml::ParseDocument(page_source));
  LintReport report;

  // Every XQuery script, then every XQuery-looking inline handler, in
  // the plug-in's order: the page is one program. As in the plug-in, a
  // page without an XQuery script gives every handler to the JavaScript
  // engine.
  std::vector<std::unique_ptr<Module>> modules;  // null: did not parse
  auto parse = [&](std::string label, const std::string& code) {
    LintUnit unit;
    unit.label = std::move(label);
    Result<std::unique_ptr<Module>> module = ParseModule(code);
    if (!module.ok()) {
      unit.diagnostics.push_back(ParseErrorDiagnostic(module.status()));
    }
    modules.push_back(module.ok() ? std::move(*module) : nullptr);
    report.units.push_back(std::move(unit));
  };
  size_t index = 0;
  for (const browser::Script& script : browser::ExtractScripts(doc.get())) {
    if (script.language != browser::ScriptLanguage::kXQuery &&
        script.language != browser::ScriptLanguage::kXQueryP) {
      continue;
    }
    parse("script " + std::to_string(++index), script.code);
  }
  for (const browser::InlineHandler& handler :
       browser::ExtractInlineHandlers(doc.get())) {
    if (index == 0 || !browser::LooksLikeXQueryHandler(handler.code)) {
      continue;
    }
    parse(handler.event + " handler \"" + handler.code + "\"",
          browser::RewriteInlineHandler(handler.code));
  }

  std::vector<const Module*> program;
  for (const auto& module : modules) {
    if (module != nullptr) program.push_back(module.get());
  }
  AnalysisResult result = AnalyzeProgram(program);
  const std::vector<std::string> effects = EffectLines(result.facts);
  size_t analyzed = 0;
  for (size_t i = 0; i < modules.size(); ++i) {
    if (modules[i] == nullptr) continue;
    report.units[i].diagnostics = std::move(result.diagnostics[analyzed++]);
    report.units[i].effects = effects;
  }
  return report;
}

}  // namespace xqib::xquery::analysis
