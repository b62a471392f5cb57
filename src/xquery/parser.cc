#include "xquery/parser.h"

#include <cassert>
#include <vector>

#include "base/strings.h"
#include "xml/xml_parser.h"

namespace xqib::xquery {

namespace {

class ParserImpl {
 public:
  explicit ParserImpl(std::string_view input) : lex_(input) {
    ns_["xml"] = std::string(xml::kXmlNamespace);
    ns_["xs"] = std::string(xml::kXsNamespace);
    ns_["fn"] = std::string(xml::kFnNamespace);
    ns_["local"] = "http://www.w3.org/2005/xquery-local-functions";
    ns_["browser"] = std::string(xml::kBrowserNamespace);
    ns_["http"] = std::string(xml::kHttpNamespace);
  }

  Result<std::unique_ptr<Module>> ParseModuleAll() {
    auto module = std::make_unique<Module>();
    module_ = module.get();
    module_->source_text = std::string(lex_.input());
    XQ_RETURN_NOT_OK(ParseProlog());
    if (!module_->is_library) {
      XQ_ASSIGN_OR_RETURN(module_->body, ParseStatementsUntilEof());
    } else if (!Peek().IsSymbol("") && Peek().kind != TokKind::kEof) {
      return Err("unexpected content after library module prolog");
    }
    XQ_RETURN_NOT_OK(lex_.status());
    return module;
  }

 private:
  // ------------------------------------------------------------ helpers ---

  const Token& Peek(size_t k = 0) { return lex_.Peek(k); }
  Token Next() { return lex_.Next(); }

  Status Err(std::string_view msg) {
    if (!lex_.status().ok()) return lex_.status();
    return Status::SyntaxError(std::string(msg) + " (at " +
                               FormatLineCol(lex_.input(), Peek().pos) +
                               ", near '" + Peek().text + "')");
  }

  bool AtName(std::string_view s) { return Peek().IsName(s); }
  bool AtSymbol(std::string_view s) { return Peek().IsSymbol(s); }

  bool EatName(std::string_view s) {
    if (AtName(s)) {
      Next();
      return true;
    }
    return false;
  }
  bool EatSymbol(std::string_view s) {
    if (AtSymbol(s)) {
      Next();
      return true;
    }
    return false;
  }
  Status ExpectName(std::string_view s) {
    if (!EatName(s)) return Err("expected '" + std::string(s) + "'");
    return Status();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!EatSymbol(s)) return Err("expected '" + std::string(s) + "'");
    return Status();
  }

  // Resolves a lexical QName. `kind` selects the default namespace rule.
  enum class NameKind { kElement, kFunction, kVariable, kAttribute, kType };
  Result<xml::QName> ResolveLexical(const std::string& raw, NameKind kind) {
    size_t colon = raw.find(':');
    if (colon == std::string::npos) {
      switch (kind) {
        case NameKind::kElement:
          return xml::QName(default_elem_ns_, "", raw);
        case NameKind::kFunction:
        case NameKind::kType:
          // Unprefixed functions live in fn:, unprefixed types in xs:.
          return xml::QName(
              std::string(kind == NameKind::kFunction ? xml::kFnNamespace
                                                      : xml::kXsNamespace),
              "", raw);
        case NameKind::kVariable:
        case NameKind::kAttribute:
          return xml::QName("", "", raw);
      }
    }
    std::string prefix = raw.substr(0, colon);
    std::string local = raw.substr(colon + 1);
    auto it = ns_.find(prefix);
    if (it == ns_.end()) {
      return Status::Error("XPST0081",
                           "undeclared namespace prefix '" + prefix + "'");
    }
    return xml::QName(it->second, prefix, local);
  }

  Result<xml::QName> ParseQName(NameKind kind) {
    if (Peek().kind != TokKind::kName) return Err("expected a name");
    Token t = Next();
    return ResolveLexical(t.text, kind);
  }

  Result<xml::QName> ParseVarName() {
    if (Peek().kind != TokKind::kVariable) {
      return Err("expected a variable reference");
    }
    Token t = Next();
    return ResolveLexical(t.text, NameKind::kVariable);
  }

  // ------------------------------------------------------------- prolog ---

  Status ParseProlog() {
    // xquery version "1.0" [encoding "..."] ;
    if (AtName("xquery") && Peek(1).IsName("version")) {
      Next();
      Next();
      if (Peek().kind != TokKind::kString) return Err("expected version");
      Next();
      if (AtName("encoding")) {
        Next();
        if (Peek().kind != TokKind::kString) return Err("expected encoding");
        Next();
      }
      XQ_RETURN_NOT_OK(ExpectSymbol(";"));
    }
    // module namespace p = "uri" [port:N] ;
    if (AtName("module") && Peek(1).IsName("namespace")) {
      Next();
      Next();
      if (Peek().kind != TokKind::kName) return Err("expected prefix");
      std::string prefix = Next().text;
      XQ_RETURN_NOT_OK(ExpectSymbol("="));
      if (Peek().kind != TokKind::kString) return Err("expected namespace");
      std::string uri = Next().text;
      module_->is_library = true;
      module_->module_prefix = prefix;
      module_->module_ns = uri;
      ns_[prefix] = uri;
      // The paper's web-service port extension (Section 3.4).
      if (EatName("port")) {
        XQ_RETURN_NOT_OK(ExpectSymbol(":"));
        if (Peek().kind != TokKind::kInteger) return Err("expected port");
        module_->service_port = std::stoi(Next().text);
      }
      XQ_RETURN_NOT_OK(ExpectSymbol(";"));
    }

    while (true) {
      if (AtName("declare")) {
        XQ_RETURN_NOT_OK(ParseDeclare());
      } else if (AtName("import") && Peek(1).IsName("module")) {
        XQ_RETURN_NOT_OK(ParseImport());
      } else {
        break;
      }
    }
    return Status();
  }

  Status ParseDeclare() {
    Next();  // declare
    if (EatName("namespace")) {
      if (Peek().kind != TokKind::kName) return Err("expected prefix");
      std::string prefix = Next().text;
      XQ_RETURN_NOT_OK(ExpectSymbol("="));
      if (Peek().kind != TokKind::kString) return Err("expected uri");
      std::string uri = Next().text;
      ns_[prefix] = uri;
      module_->namespaces.emplace_back(prefix, uri);
      return ExpectSymbol(";");
    }
    if (EatName("default")) {
      if (EatName("element")) {
        XQ_RETURN_NOT_OK(ExpectName("namespace"));
        if (Peek().kind != TokKind::kString) return Err("expected uri");
        default_elem_ns_ = Next().text;
        module_->default_element_ns = default_elem_ns_;
      } else if (EatName("function")) {
        XQ_RETURN_NOT_OK(ExpectName("namespace"));
        if (Peek().kind != TokKind::kString) return Err("expected uri");
        Next();  // accepted and ignored: we keep fn: as default
      } else {
        return Err("expected 'element' or 'function'");
      }
      return ExpectSymbol(";");
    }
    if (EatName("option")) {
      XQ_ASSIGN_OR_RETURN(xml::QName name, ParseQName(NameKind::kFunction));
      if (Peek().kind != TokKind::kString) return Err("expected option value");
      module_->options.emplace_back(name.Clark(), Next().text);
      return ExpectSymbol(";");
    }
    if (EatName("variable")) {
      VarDecl decl;
      decl.source_pos = Peek().pos;
      XQ_ASSIGN_OR_RETURN(decl.name, ParseVarName());
      if (EatName("as")) {
        XQ_ASSIGN_OR_RETURN(decl.type, ParseSequenceType());
      }
      if (EatSymbol(":=") || EatSymbol("=")) {
        XQ_ASSIGN_OR_RETURN(decl.init, ParseExprSingle());
      } else if (EatName("external")) {
        decl.external = true;
      } else if (!AtSymbol(";")) {
        return Err("expected ':=' or 'external'");
      }
      module_->variables.push_back(std::move(decl));
      return ExpectSymbol(";");
    }
    // declare [updating|sequential]* function ...
    bool updating = false, sequential = false;
    while (true) {
      if (EatName("updating")) {
        updating = true;
      } else if (EatName("sequential")) {
        sequential = true;
      } else {
        break;
      }
    }
    if (EatName("function")) {
      auto fn = std::make_shared<FunctionDecl>();
      fn->updating = updating;
      fn->sequential = sequential;
      if (Peek().kind != TokKind::kName) return Err("expected function name");
      fn->source_pos = Peek().pos;
      Token name_tok = Next();
      // Function declarations without a prefix default to local:.
      std::string raw = name_tok.text;
      if (raw.find(':') == std::string::npos) raw = "local:" + raw;
      XQ_ASSIGN_OR_RETURN(fn->name, ResolveLexical(raw, NameKind::kFunction));
      XQ_RETURN_NOT_OK(ExpectSymbol("("));
      if (!AtSymbol(")")) {
        while (true) {
          Param p;
          p.source_pos = Peek().pos;
          XQ_ASSIGN_OR_RETURN(p.name, ParseVarName());
          if (EatName("as")) {
            XQ_ASSIGN_OR_RETURN(p.type, ParseSequenceType());
          }
          fn->params.push_back(std::move(p));
          if (!EatSymbol(",")) break;
        }
      }
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      if (EatName("as")) {
        XQ_ASSIGN_OR_RETURN(fn->return_type, ParseSequenceType());
      }
      if (EatName("external")) {
        fn->external = true;
      } else {
        XQ_RETURN_NOT_OK(ExpectSymbol("{"));
        XQ_ASSIGN_OR_RETURN(fn->body, ParseStatements("}"));
        XQ_RETURN_NOT_OK(ExpectSymbol("}"));
      }
      module_->functions.push_back(std::move(fn));
      return ExpectSymbol(";");
    }
    return Err("unsupported declaration");
  }

  Status ParseImport() {
    Next();  // import
    Next();  // module
    XQ_RETURN_NOT_OK(ExpectName("namespace"));
    if (Peek().kind != TokKind::kName) return Err("expected prefix");
    Module::Import imp;
    imp.prefix = Next().text;
    XQ_RETURN_NOT_OK(ExpectSymbol("="));
    if (Peek().kind != TokKind::kString) return Err("expected namespace uri");
    imp.ns = Next().text;
    ns_[imp.prefix] = imp.ns;
    if (EatName("at")) {
      if (Peek().kind != TokKind::kString) return Err("expected location");
      imp.location = Next().text;
      while (EatSymbol(",")) {
        if (Peek().kind != TokKind::kString) return Err("expected location");
        Next();  // extra locations accepted, first one used
      }
    }
    module_->imports.push_back(std::move(imp));
    return ExpectSymbol(";");
  }

  // -------------------------------------------------- statements/blocks ---

  // Parses statements separated by ';' until EOF; a single statement
  // stays a plain expression, several become a kBlock (Scripting Ext.).
  Result<ExprPtr> ParseStatementsUntilEof() {
    return ParseStatements("");
  }

  // `terminator`: "}" for blocks, "" for EOF.
  Result<ExprPtr> ParseStatements(std::string_view terminator) {
    std::vector<ExprPtr> stmts;
    while (true) {
      if (terminator.empty() ? Peek().kind == TokKind::kEof
                             : AtSymbol(terminator)) {
        break;
      }
      XQ_ASSIGN_OR_RETURN(ExprPtr stmt, ParseStatement());
      stmts.push_back(std::move(stmt));
      if (!EatSymbol(";")) break;
    }
    if (terminator.empty() && Peek().kind != TokKind::kEof) {
      return Err("unexpected trailing content");
    }
    if (stmts.size() == 1) return std::move(stmts[0]);
    ExprPtr block = MakeExpr(ExprKind::kBlock);
    block->kids = std::move(stmts);
    return block;
  }

  Result<ExprPtr> ParseStatement() {
    size_t start = Peek().pos;
    XQ_ASSIGN_OR_RETURN(ExprPtr e, ParseStatementBare());
    if (e != nullptr && e->source_pos == 0) e->source_pos = start;
    return e;
  }

  Result<ExprPtr> ParseStatementBare() {
    // declare variable $x := expr   (block-local declaration)
    if (AtName("declare") && Peek(1).IsName("variable")) {
      Next();
      Next();
      ExprPtr decl = MakeExpr(ExprKind::kVarDecl);
      decl->source_pos = Peek().pos;
      XQ_ASSIGN_OR_RETURN(decl->qname, ParseVarName());
      if (EatName("as")) {
        XQ_RETURN_NOT_OK(ParseSequenceType().status());
      }
      if (EatSymbol(":=") || EatSymbol("=")) {
        XQ_ASSIGN_OR_RETURN(ExprPtr init, ParseExprSingle());
        decl->kids.push_back(std::move(init));
      }
      return decl;
    }
    // set $x := expr  (the paper's spelling of scripting assignment)
    if (AtName("set") && Peek(1).kind == TokKind::kVariable) {
      Next();
      ExprPtr assign = MakeExpr(ExprKind::kAssign);
      XQ_ASSIGN_OR_RETURN(assign->qname, ParseVarName());
      if (!EatSymbol(":=") && !EatSymbol("=")) return Err("expected ':='");
      XQ_ASSIGN_OR_RETURN(ExprPtr value, ParseExprSingle());
      assign->kids.push_back(std::move(value));
      return assign;
    }
    // $x := expr  (standard scripting assignment)
    if (Peek().kind == TokKind::kVariable && Peek(1).IsSymbol(":=")) {
      ExprPtr assign = MakeExpr(ExprKind::kAssign);
      XQ_ASSIGN_OR_RETURN(assign->qname, ParseVarName());
      Next();  // :=
      XQ_ASSIGN_OR_RETURN(ExprPtr value, ParseExprSingle());
      assign->kids.push_back(std::move(value));
      return assign;
    }
    // while (expr) { statements }
    if (AtName("while") && Peek(1).IsSymbol("(")) {
      Next();
      Next();
      ExprPtr w = MakeExpr(ExprKind::kWhile);
      XQ_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      XQ_RETURN_NOT_OK(ExpectSymbol("{"));
      XQ_ASSIGN_OR_RETURN(ExprPtr body, ParseStatements("}"));
      XQ_RETURN_NOT_OK(ExpectSymbol("}"));
      w->kids.push_back(std::move(cond));
      w->kids.push_back(std::move(body));
      return w;
    }
    // exit with expr
    if (AtName("exit") && Peek(1).IsName("with")) {
      Next();
      Next();
      ExprPtr e = MakeExpr(ExprKind::kExitWith);
      XQ_ASSIGN_OR_RETURN(ExprPtr value, ParseExprSingle());
      e->kids.push_back(std::move(value));
      return e;
    }
    return ParseExpr();
  }

  // ---------------------------------------------------------- operators ---

  // Expr ::= ExprSingle ("," ExprSingle)*
  Result<ExprPtr> ParseExpr() {
    XQ_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    if (!AtSymbol(",")) return first;
    ExprPtr seq = MakeExpr(ExprKind::kSequence);
    seq->kids.push_back(std::move(first));
    while (EatSymbol(",")) {
      XQ_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      seq->kids.push_back(std::move(next));
    }
    return seq;
  }

  Result<ExprPtr> ParseExprSingle() {
    size_t start = Peek().pos;
    XQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingleBare());
    if (e != nullptr && e->source_pos == 0) e->source_pos = start;
    return e;
  }

  Result<ExprPtr> ParseExprSingleBare() {
    const Token& t = Peek();
    if (t.kind == TokKind::kName) {
      const std::string& kw = t.text;
      if ((kw == "for" || kw == "let") && Peek(1).kind == TokKind::kVariable) {
        return ParseFLWOR();
      }
      if ((kw == "some" || kw == "every") &&
          Peek(1).kind == TokKind::kVariable) {
        return ParseQuantified();
      }
      if (kw == "if" && Peek(1).IsSymbol("(")) return ParseIf();
      if (kw == "typeswitch" && Peek(1).IsSymbol("(")) {
        return ParseTypeswitch();
      }
      // Update Facility, with the optional scripting "do" prefix.
      if (kw == "do") {
        const std::string& nx = Peek(1).text;
        if (nx == "insert" || nx == "delete" || nx == "replace" ||
            nx == "rename") {
          Next();  // do
          return ParseExprSingle();
        }
      }
      if (kw == "insert" &&
          (Peek(1).IsName("node") || Peek(1).IsName("nodes"))) {
        return ParseInsert();
      }
      if (kw == "delete" &&
          (Peek(1).IsName("node") || Peek(1).IsName("nodes"))) {
        return ParseDelete();
      }
      if (kw == "replace" &&
          (Peek(1).IsName("node") || Peek(1).IsName("value"))) {
        return ParseReplace();
      }
      if (kw == "rename" && Peek(1).IsName("node")) return ParseRename();
      if (kw == "copy" && Peek(1).kind == TokKind::kVariable) {
        return ParseTransform();
      }
      // Browser extensions.
      if (kw == "on" && Peek(1).IsName("event")) return ParseEventAttach();
      if (kw == "trigger" && Peek(1).IsName("event")) {
        return ParseEventTrigger();
      }
      if (kw == "set" && Peek(1).IsName("style")) return ParseSetStyle();
      if (kw == "get" && Peek(1).IsName("style")) return ParseGetStyle();
      // Scripting forms usable in expression position too.
      if (kw == "set" && Peek(1).kind == TokKind::kVariable) {
        return ParseStatement();
      }
      if (kw == "while" && Peek(1).IsSymbol("(")) return ParseStatement();
      if (kw == "exit" && Peek(1).IsName("with")) return ParseStatement();
      if (kw == "declare" && Peek(1).IsName("variable")) {
        return ParseStatement();
      }
    }
    if (t.kind == TokKind::kVariable && Peek(1).IsSymbol(":=")) {
      return ParseStatement();
    }
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AtName("or")) {
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      ExprPtr e = MakeExpr(ExprKind::kLogical);
      e->logical_and = false;
      e->source_pos = lhs->source_pos;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
    while (AtName("and")) {
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
      ExprPtr e = MakeExpr(ExprKind::kLogical);
      e->logical_and = true;
      e->source_pos = lhs->source_pos;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseFtContains());
    CompOp op;
    if (AtSymbol("=")) op = CompOp::kGenEq;
    else if (AtSymbol("!=")) op = CompOp::kGenNe;
    else if (AtSymbol("<")) op = CompOp::kGenLt;
    else if (AtSymbol("<=")) op = CompOp::kGenLe;
    else if (AtSymbol(">")) op = CompOp::kGenGt;
    else if (AtSymbol(">=")) op = CompOp::kGenGe;
    else if (AtName("eq")) op = CompOp::kValEq;
    else if (AtName("ne")) op = CompOp::kValNe;
    else if (AtName("lt")) op = CompOp::kValLt;
    else if (AtName("le")) op = CompOp::kValLe;
    else if (AtName("gt")) op = CompOp::kValGt;
    else if (AtName("ge")) op = CompOp::kValGe;
    else if (AtName("is")) op = CompOp::kIs;
    else if (AtSymbol("<<")) op = CompOp::kPrecedes;
    else if (AtSymbol(">>")) op = CompOp::kFollows;
    else return lhs;
    Next();
    XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseFtContains());
    ExprPtr e = MakeExpr(ExprKind::kComparison);
    e->comp_op = op;
    e->source_pos = lhs->source_pos;
    e->kids.push_back(std::move(lhs));
    e->kids.push_back(std::move(rhs));
    return e;
  }

  Result<ExprPtr> ParseFtContains() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRange());
    if (!AtName("ftcontains")) return lhs;
    Next();
    ExprPtr e = MakeExpr(ExprKind::kFtContains);
    e->source_pos = lhs->source_pos;
    e->kids.push_back(std::move(lhs));
    XQ_ASSIGN_OR_RETURN(e->ft, ParseFtOr());
    return e;
  }

  Result<std::unique_ptr<FtSelection>> ParseFtOr() {
    XQ_ASSIGN_OR_RETURN(auto lhs, ParseFtAnd());
    while (AtName("ftor")) {
      Next();
      XQ_ASSIGN_OR_RETURN(auto rhs, ParseFtAnd());
      auto node = std::make_unique<FtSelection>();
      node->kind = FtSelection::Kind::kOr;
      node->kids.push_back(std::move(lhs));
      node->kids.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<FtSelection>> ParseFtAnd() {
    XQ_ASSIGN_OR_RETURN(auto lhs, ParseFtPrimary());
    while (AtName("ftand")) {
      Next();
      XQ_ASSIGN_OR_RETURN(auto rhs, ParseFtPrimary());
      auto node = std::make_unique<FtSelection>();
      node->kind = FtSelection::Kind::kAnd;
      node->kids.push_back(std::move(lhs));
      node->kids.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<FtSelection>> ParseFtPrimary() {
    if (AtName("ftnot")) {
      Next();
      XQ_ASSIGN_OR_RETURN(auto inner, ParseFtPrimary());
      auto node = std::make_unique<FtSelection>();
      node->kind = FtSelection::Kind::kNot;
      node->kids.push_back(std::move(inner));
      return node;
    }
    if (AtSymbol("(")) {
      Next();
      XQ_ASSIGN_OR_RETURN(auto inner, ParseFtOr());
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      XQ_RETURN_NOT_OK(MaybeFtOptions(inner.get()));
      return inner;
    }
    auto node = std::make_unique<FtSelection>();
    node->kind = FtSelection::Kind::kWords;
    XQ_ASSIGN_OR_RETURN(node->words, ParseUnary());
    XQ_RETURN_NOT_OK(MaybeFtOptions(node.get()));
    return node;
  }

  Status MaybeFtOptions(FtSelection* sel) {
    if (AtName("with") && Peek(1).IsName("stemming")) {
      Next();
      Next();
      sel->with_stemming = true;
    }
    return Status();
  }

  Result<ExprPtr> ParseRange() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (!AtName("to")) return lhs;
    Next();
    XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    ExprPtr e = MakeExpr(ExprKind::kRange);
    e->source_pos = lhs->source_pos;
    e->kids.push_back(std::move(lhs));
    e->kids.push_back(std::move(rhs));
    return e;
  }

  Result<ExprPtr> ParseAdditive() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (AtSymbol("+") || AtSymbol("-")) {
      ArithOp op = AtSymbol("+") ? ArithOp::kAdd : ArithOp::kSub;
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->source_pos = lhs->source_pos;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnion());
    while (true) {
      ArithOp op;
      if (AtSymbol("*")) op = ArithOp::kMul;
      else if (AtName("div")) op = ArithOp::kDiv;
      else if (AtName("idiv")) op = ArithOp::kIDiv;
      else if (AtName("mod")) op = ArithOp::kMod;
      else break;
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnion());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->source_pos = lhs->source_pos;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnion() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseIntersectExcept());
    while (AtSymbol("|") || AtName("union")) {
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseIntersectExcept());
      ExprPtr e = MakeExpr(ExprKind::kSetOp);
      e->str = "union";
      e->source_pos = lhs->source_pos;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseIntersectExcept() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseInstanceOf());
    while (AtName("intersect") || AtName("except")) {
      std::string op = Next().text;
      XQ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseInstanceOf());
      ExprPtr e = MakeExpr(ExprKind::kSetOp);
      e->str = op;
      e->source_pos = lhs->source_pos;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseInstanceOf() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTreatCastable());
    if (AtName("instance") && Peek(1).IsName("of")) {
      Next();
      Next();
      ExprPtr e = MakeExpr(ExprKind::kCast);
      e->cast_op = "instance";
      e->source_pos = lhs->source_pos;
      XQ_ASSIGN_OR_RETURN(e->seq_type, ParseSequenceType());
      e->kids.push_back(std::move(lhs));
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseTreatCastable() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCast());
    while (true) {
      std::string op;
      if (AtName("treat") && Peek(1).IsName("as")) op = "treat";
      else if (AtName("castable") && Peek(1).IsName("as")) op = "castable";
      else break;
      Next();
      Next();
      ExprPtr e = MakeExpr(ExprKind::kCast);
      e->cast_op = op;
      e->source_pos = lhs->source_pos;
      XQ_ASSIGN_OR_RETURN(e->seq_type, ParseSequenceType());
      e->kids.push_back(std::move(lhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseCast() {
    XQ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    if (AtName("cast") && Peek(1).IsName("as")) {
      Next();
      Next();
      ExprPtr e = MakeExpr(ExprKind::kCast);
      e->cast_op = "cast";
      e->source_pos = lhs->source_pos;
      XQ_ASSIGN_OR_RETURN(e->seq_type, ParseSequenceType());
      e->kids.push_back(std::move(lhs));
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (AtSymbol("-") || AtSymbol("+")) {
      size_t start = Peek().pos;
      ArithOp op = AtSymbol("-") ? ArithOp::kSub : ArithOp::kAdd;
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      ExprPtr e = MakeExpr(ExprKind::kUnary);
      e->arith_op = op;
      e->source_pos = start;
      e->kids.push_back(std::move(operand));
      return e;
    }
    return ParsePath();
  }

  // --------------------------------------------------------------- path ---

  Result<ExprPtr> ParsePath() {
    ExprPtr path = MakeExpr(ExprKind::kPath);
    path->source_pos = Peek().pos;
    bool leading_slash = false;
    if (AtSymbol("/")) {
      Next();
      path->root_anchored = true;
      leading_slash = true;
      if (!AtPathStepStart()) {
        // Bare "/": the document root.
        return path;
      }
    } else if (AtSymbol("//")) {
      Next();
      path->root_anchored = true;
      leading_slash = true;
      Step ds;
      ds.axis = Axis::kDescendantOrSelf;
      ds.test.kind = NodeTest::Kind::kAnyKind;
      path->steps.push_back(std::move(ds));
    }

    // First step: either an axis step or a primary (filter) expression.
    if (!leading_slash && !AtAxisStepStart()) {
      XQ_ASSIGN_OR_RETURN(ExprPtr primary, ParseFilter());
      if (!AtSymbol("/") && !AtSymbol("//")) return primary;
      path->kids.push_back(std::move(primary));
    } else {
      XQ_ASSIGN_OR_RETURN(Step step, ParseStepExpr());
      path->steps.push_back(std::move(step));
    }

    while (AtSymbol("/") || AtSymbol("//")) {
      if (AtSymbol("//")) {
        Step ds;
        ds.axis = Axis::kDescendantOrSelf;
        ds.test.kind = NodeTest::Kind::kAnyKind;
        path->steps.push_back(std::move(ds));
      }
      Next();
      XQ_ASSIGN_OR_RETURN(Step step, ParseStepExpr());
      path->steps.push_back(std::move(step));
    }
    return path;
  }

  // StepExpr ::= FilterExpr | AxisStep. A filter expression after '/'
  // (a function call, a parenthesized or literal primary, '.', a
  // variable) becomes an expression step.
  Result<Step> ParseStepExpr() {
    if (AtAxisStepStart()) return ParseStep();
    Step step;
    XQ_ASSIGN_OR_RETURN(step.expr, ParseFilter());
    return step;
  }

  bool AtPathStepStart() {
    const Token& t = Peek();
    return t.kind == TokKind::kName || t.IsSymbol("@") || t.IsSymbol("*") ||
           t.IsSymbol("..") || t.IsSymbol(".");
  }

  // True when the next token must be an axis step (not a primary expr).
  bool AtAxisStepStart() {
    const Token& t = Peek();
    if (t.IsSymbol("@") || t.IsSymbol("..")) return true;
    if (t.IsSymbol("*")) return true;
    if (t.kind != TokKind::kName) return false;
    const Token& n = Peek(1);
    if (n.IsSymbol("::")) return true;  // explicit axis
    if (n.IsSymbol("(")) {
      // Node tests are steps; anything else with '(' is a function call.
      return IsNodeTestName(t.text);
    }
    // Computed constructors ("element foo {..}", "text {..}") are
    // primaries, not steps.
    if (n.IsSymbol("{") &&
        (t.text == "element" || t.text == "attribute" || t.text == "text" ||
         t.text == "comment" || t.text == "processing-instruction" ||
         t.text == "document" || t.text == "ordered" ||
         t.text == "unordered")) {
      return false;
    }
    if ((t.text == "element" || t.text == "attribute" ||
         t.text == "processing-instruction") &&
        n.kind == TokKind::kName && Peek(2).IsSymbol("{")) {
      return false;
    }
    // Reserved expression keywords never start a step in our dialect when
    // recognized earlier; remaining names are name tests.
    return true;
  }

  static bool IsNodeTestName(const std::string& name) {
    return name == "node" || name == "text" || name == "comment" ||
           name == "processing-instruction" || name == "element" ||
           name == "attribute" || name == "document-node";
  }

  Result<Step> ParseStep() {
    Step step;
    if (AtSymbol("..")) {
      Next();
      step.axis = Axis::kParent;
      step.test.kind = NodeTest::Kind::kAnyKind;
      XQ_RETURN_NOT_OK(ParsePredicates(&step.predicates));
      return step;
    }
    if (AtSymbol("@")) {
      Next();
      step.axis = Axis::kAttribute;
      XQ_ASSIGN_OR_RETURN(step.test, ParseNodeTest(NameKind::kAttribute));
      XQ_RETURN_NOT_OK(ParsePredicates(&step.predicates));
      return step;
    }
    // Explicit axis?
    if (Peek().kind == TokKind::kName && Peek(1).IsSymbol("::")) {
      const std::string& ax = Peek().text;
      bool known = true;
      if (ax == "child") step.axis = Axis::kChild;
      else if (ax == "descendant") step.axis = Axis::kDescendant;
      else if (ax == "descendant-or-self") step.axis = Axis::kDescendantOrSelf;
      else if (ax == "self") step.axis = Axis::kSelf;
      else if (ax == "attribute") step.axis = Axis::kAttribute;
      else if (ax == "parent") step.axis = Axis::kParent;
      else if (ax == "ancestor") step.axis = Axis::kAncestor;
      else if (ax == "ancestor-or-self") step.axis = Axis::kAncestorOrSelf;
      else if (ax == "following-sibling") step.axis = Axis::kFollowingSibling;
      else if (ax == "preceding-sibling") step.axis = Axis::kPrecedingSibling;
      else if (ax == "following") step.axis = Axis::kFollowing;
      else if (ax == "preceding") step.axis = Axis::kPreceding;
      else known = false;
      if (!known) return Err("unknown axis '" + ax + "'");
      Next();
      Next();
    }
    NameKind name_kind = step.axis == Axis::kAttribute ? NameKind::kAttribute
                                                       : NameKind::kElement;
    XQ_ASSIGN_OR_RETURN(step.test, ParseNodeTest(name_kind));
    XQ_RETURN_NOT_OK(ParsePredicates(&step.predicates));
    return step;
  }

  Result<NodeTest> ParseNodeTest(NameKind name_kind) {
    NodeTest test;
    if (AtSymbol("*")) {
      Next();
      test.kind = NodeTest::Kind::kName;
      test.any_name = true;
      return test;
    }
    if (Peek().kind != TokKind::kName) return Err("expected a node test");
    Token t = Next();
    const std::string& raw = t.text;

    if (Peek().IsSymbol("(") && IsNodeTestName(raw)) {
      Next();  // (
      if (raw == "node") test.kind = NodeTest::Kind::kAnyKind;
      else if (raw == "text") test.kind = NodeTest::Kind::kText;
      else if (raw == "comment") test.kind = NodeTest::Kind::kComment;
      else if (raw == "document-node") test.kind = NodeTest::Kind::kDocument;
      else if (raw == "processing-instruction") {
        test.kind = NodeTest::Kind::kPI;
        if (Peek().kind == TokKind::kName ||
            Peek().kind == TokKind::kString) {
          test.name = xml::QName(Next().text);
        } else {
          test.any_name = true;
        }
      } else if (raw == "element") {
        test.kind = NodeTest::Kind::kElement;
        if (Peek().kind == TokKind::kName) {
          XQ_ASSIGN_OR_RETURN(
              test.name, ResolveLexical(Next().text, NameKind::kElement));
        } else {
          test.any_name = true;
        }
      } else if (raw == "attribute") {
        test.kind = NodeTest::Kind::kAttribute;
        if (Peek().kind == TokKind::kName) {
          XQ_ASSIGN_OR_RETURN(
              test.name, ResolveLexical(Next().text, NameKind::kAttribute));
        } else {
          test.any_name = true;
        }
      }
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      return test;
    }

    test.kind = NodeTest::Kind::kName;
    if (EndsWith(raw, ":*")) {
      std::string prefix = raw.substr(0, raw.size() - 2);
      auto it = ns_.find(prefix);
      if (it == ns_.end()) {
        return Status::Error("XPST0081",
                             "undeclared namespace prefix '" + prefix + "'");
      }
      test.any_local = true;
      test.name = xml::QName(it->second, prefix, "*");
      return test;
    }
    if (StartsWith(raw, "*:")) {
      test.any_ns = true;
      test.name = xml::QName("", "", raw.substr(2));
      return test;
    }
    XQ_ASSIGN_OR_RETURN(test.name, ResolveLexical(raw, name_kind));
    return test;
  }

  Status ParsePredicates(std::vector<ExprPtr>* preds) {
    while (AtSymbol("[")) {
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr p, ParseExpr());
      XQ_RETURN_NOT_OK(ExpectSymbol("]"));
      preds->push_back(std::move(p));
    }
    return Status();
  }

  Result<ExprPtr> ParseFilter() {
    XQ_ASSIGN_OR_RETURN(ExprPtr primary, ParsePrimary());
    if (!AtSymbol("[")) return primary;
    ExprPtr filter = MakeExpr(ExprKind::kFilter);
    filter->source_pos = primary->source_pos;
    filter->kids.push_back(std::move(primary));
    XQ_RETURN_NOT_OK(ParsePredicates(&filter->predicates));
    return filter;
  }

  // ------------------------------------------------------------ primary ---

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    size_t start = t.pos;
    switch (t.kind) {
      case TokKind::kString: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->source_pos = start;
        e->atom = xdm::AtomicValue::String(Next().text);
        return e;
      }
      case TokKind::kInteger: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->source_pos = start;
        e->atom = xdm::AtomicValue::Integer(std::stoll(Next().text));
        return e;
      }
      case TokKind::kDecimal: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->source_pos = start;
        e->atom = xdm::AtomicValue::Decimal(std::stod(Next().text));
        return e;
      }
      case TokKind::kDouble: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->source_pos = start;
        e->atom = xdm::AtomicValue::Double(std::stod(Next().text));
        return e;
      }
      case TokKind::kVariable: {
        ExprPtr e = MakeExpr(ExprKind::kVarRef);
        e->source_pos = start;
        XQ_ASSIGN_OR_RETURN(e->qname, ParseVarName());
        return e;
      }
      default:
        break;
    }
    if (AtSymbol("(")) {
      Next();
      if (EatSymbol(")")) return MakeExpr(ExprKind::kSequence);  // empty ()
      XQ_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (AtSymbol(".")) {
      Next();
      return MakeExpr(ExprKind::kContextItem);
    }
    if (AtSymbol("{")) {
      // Scripting block expression.
      Next();
      XQ_ASSIGN_OR_RETURN(ExprPtr block, ParseStatements("}"));
      XQ_RETURN_NOT_OK(ExpectSymbol("}"));
      if (block->kind != ExprKind::kBlock) {
        ExprPtr wrap = MakeExpr(ExprKind::kBlock);
        wrap->kids.push_back(std::move(block));
        return wrap;
      }
      return block;
    }
    if (AtSymbol("<")) {
      // Direct element constructor if '<' is glued to a name start char.
      size_t p = t.pos;
      std::string_view in = lex_.input();
      if (p + 1 < in.size() && IsNameStartChar(in[p + 1])) {
        return ParseDirectConstructor();
      }
      return Err("unexpected '<'");
    }
    if (t.kind == TokKind::kName) {
      // Computed constructors.
      const std::string& kw = t.text;
      if (kw == "element" || kw == "attribute") {
        if (Peek(1).kind == TokKind::kName || Peek(1).IsSymbol("{")) {
          return ParseComputedNamed(kw == "element"
                                        ? ExprKind::kComputedElement
                                        : ExprKind::kComputedAttribute);
        }
      }
      if (kw == "text" && Peek(1).IsSymbol("{")) {
        return ParseComputedSimple(ExprKind::kComputedText);
      }
      if (kw == "comment" && Peek(1).IsSymbol("{")) {
        return ParseComputedSimple(ExprKind::kComputedComment);
      }
      if (kw == "processing-instruction" &&
          (Peek(1).kind == TokKind::kName || Peek(1).IsSymbol("{"))) {
        return ParseComputedPI();
      }
      if ((kw == "ordered" || kw == "unordered") && Peek(1).IsSymbol("{")) {
        Next();
        Next();
        XQ_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        XQ_RETURN_NOT_OK(ExpectSymbol("}"));
        return inner;
      }
      // Function call?
      if (Peek(1).IsSymbol("(")) return ParseFunctionCall();
      return Err("unexpected name '" + kw + "' in expression");
    }
    return Err("unexpected token in expression");
  }

  Result<ExprPtr> ParseFunctionCall() {
    Token name_tok = Next();
    ExprPtr call = MakeExpr(ExprKind::kFunctionCall);
    call->source_pos = name_tok.pos;
    XQ_ASSIGN_OR_RETURN(call->qname,
                        ResolveLexical(name_tok.text, NameKind::kFunction));
    XQ_RETURN_NOT_OK(ExpectSymbol("("));
    if (!AtSymbol(")")) {
      while (true) {
        XQ_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
        call->kids.push_back(std::move(arg));
        if (!EatSymbol(",")) break;
      }
    }
    XQ_RETURN_NOT_OK(ExpectSymbol(")"));
    return call;
  }

  Result<ExprPtr> ParseComputedNamed(ExprKind kind) {
    Next();  // element / attribute
    ExprPtr e = MakeExpr(kind);
    if (Peek().kind == TokKind::kName) {
      XQ_ASSIGN_OR_RETURN(
          e->qname,
          ResolveLexical(Next().text, kind == ExprKind::kComputedElement
                                          ? NameKind::kElement
                                          : NameKind::kAttribute));
    } else {
      XQ_RETURN_NOT_OK(ExpectSymbol("{"));
      XQ_ASSIGN_OR_RETURN(ExprPtr name_expr, ParseExpr());
      XQ_RETURN_NOT_OK(ExpectSymbol("}"));
      e->kids.push_back(std::move(name_expr));
      e->str = "computed-name";
    }
    XQ_RETURN_NOT_OK(ExpectSymbol("{"));
    if (!AtSymbol("}")) {
      XQ_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
      e->kids.push_back(std::move(content));
    }
    XQ_RETURN_NOT_OK(ExpectSymbol("}"));
    return e;
  }

  Result<ExprPtr> ParseComputedSimple(ExprKind kind) {
    Next();  // text / comment
    ExprPtr e = MakeExpr(kind);
    XQ_RETURN_NOT_OK(ExpectSymbol("{"));
    if (!AtSymbol("}")) {
      XQ_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
      e->kids.push_back(std::move(content));
    }
    XQ_RETURN_NOT_OK(ExpectSymbol("}"));
    return e;
  }

  Result<ExprPtr> ParseComputedPI() {
    Next();  // processing-instruction
    ExprPtr e = MakeExpr(ExprKind::kComputedPI);
    if (Peek().kind == TokKind::kName) {
      e->str = Next().text;
    } else {
      return Err("computed PI requires a literal target");
    }
    XQ_RETURN_NOT_OK(ExpectSymbol("{"));
    if (!AtSymbol("}")) {
      XQ_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
      e->kids.push_back(std::move(content));
    }
    XQ_RETURN_NOT_OK(ExpectSymbol("}"));
    return e;
  }

  // ------------------------------------------------- direct constructor ---

  // Scans a direct element constructor from raw input. The lexer is
  // re-seeked past the constructor afterwards.
  Result<ExprPtr> ParseDirectConstructor() {
    size_t start = Peek().pos;
    lex_.RawSeek(start);
    raw_ = lex_.input();
    rpos_ = start;
    XQ_ASSIGN_OR_RETURN(auto node, ScanElement());
    lex_.RawSeek(rpos_);
    ExprPtr e = MakeExpr(ExprKind::kDirectElement);
    e->direct = std::move(node);
    return e;
  }

  bool RawEof() const { return rpos_ >= raw_.size(); }
  char RawPeek() const { return raw_[rpos_]; }
  bool RawLookingAt(std::string_view s) const {
    return raw_.size() - rpos_ >= s.size() && raw_.substr(rpos_, s.size()) == s;
  }
  void RawSkipWs() {
    while (!RawEof() && IsXmlWhitespace(RawPeek())) ++rpos_;
  }

  Result<std::string> ScanRawName() {
    if (RawEof() || !IsNameStartChar(RawPeek())) {
      return Status::SyntaxError("expected name in constructor at offset " +
                                 std::to_string(rpos_));
    }
    size_t s = rpos_;
    while (!RawEof() && (IsNameChar(RawPeek()) || RawPeek() == ':')) ++rpos_;
    return std::string(raw_.substr(s, rpos_ - s));
  }

  // Parses an enclosed expression starting at rpos_ (just after '{').
  Result<ExprPtr> ScanEnclosedExpr() {
    lex_.RawSeek(rpos_);
    XQ_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    if (!AtSymbol("}")) return Err("expected '}' after enclosed expression");
    Token close = Next();
    rpos_ = close.pos + 1;
    return inner;
  }

  Result<std::unique_ptr<DirectNode>> ScanElement() {
    assert(RawPeek() == '<');
    ++rpos_;
    XQ_ASSIGN_OR_RETURN(std::string raw_name, ScanRawName());
    auto node = std::make_unique<DirectNode>();
    node->kind = DirectNode::Kind::kElement;

    // Attributes (may declare namespaces used by this very element).
    std::vector<std::pair<std::string, DirectNode::Attr>> raw_attrs;
    std::vector<std::pair<std::string, std::string>> local_ns;
    while (true) {
      RawSkipWs();
      if (RawEof()) return Status::SyntaxError("unterminated constructor");
      if (RawPeek() == '>' || RawPeek() == '/') break;
      XQ_ASSIGN_OR_RETURN(std::string attr_name, ScanRawName());
      RawSkipWs();
      if (RawEof() || RawPeek() != '=') {
        return Status::SyntaxError("expected '=' in constructor attribute");
      }
      ++rpos_;
      RawSkipWs();
      if (RawEof() || (RawPeek() != '"' && RawPeek() != '\'')) {
        return Status::SyntaxError("expected quoted attribute value");
      }
      char quote = RawPeek();
      ++rpos_;
      DirectNode::Attr attr;
      std::string literal;
      bool is_ns_decl = attr_name == "xmlns" || StartsWith(attr_name, "xmlns:");
      std::string ns_literal;
      while (true) {
        if (RawEof()) return Status::SyntaxError("unterminated attribute");
        char c = RawPeek();
        if (c == quote) {
          if (rpos_ + 1 < raw_.size() && raw_[rpos_ + 1] == quote) {
            literal.push_back(quote);
            rpos_ += 2;
            continue;
          }
          ++rpos_;
          break;
        }
        if (c == '{') {
          if (rpos_ + 1 < raw_.size() && raw_[rpos_ + 1] == '{') {
            literal.push_back('{');
            rpos_ += 2;
            continue;
          }
          ++rpos_;
          if (!literal.empty()) {
            attr.parts.push_back({std::move(literal), nullptr});
            literal.clear();
          }
          XQ_ASSIGN_OR_RETURN(ExprPtr inner, ScanEnclosedExpr());
          attr.parts.push_back({"", std::move(inner)});
          continue;
        }
        if (c == '}') {
          if (rpos_ + 1 < raw_.size() && raw_[rpos_ + 1] == '}') {
            literal.push_back('}');
            rpos_ += 2;
            continue;
          }
          return Status::SyntaxError("'}' must be doubled in attributes");
        }
        if (c == '&') {
          size_t semi = raw_.find(';', rpos_);
          if (semi == std::string_view::npos) {
            return Status::SyntaxError("unterminated entity in attribute");
          }
          XQ_ASSIGN_OR_RETURN(
              std::string decoded,
              xml::DecodeEntities(raw_.substr(rpos_, semi - rpos_ + 1)));
          literal += decoded;
          rpos_ = semi + 1;
          continue;
        }
        literal.push_back(c);
        ++rpos_;
      }
      if (is_ns_decl) {
        ns_literal = literal;
        std::string prefix =
            attr_name == "xmlns" ? "" : attr_name.substr(6);
        local_ns.emplace_back(prefix, ns_literal);
      } else {
        if (!literal.empty()) {
          attr.parts.push_back({std::move(literal), nullptr});
        }
        raw_attrs.emplace_back(attr_name, std::move(attr));
      }
    }

    // Bring local namespace declarations into scope for name resolution.
    std::unordered_map<std::string, std::string> saved_ns = ns_;
    std::string saved_default = default_elem_ns_;
    for (auto& [prefix, uri] : local_ns) {
      if (prefix.empty()) {
        default_elem_ns_ = uri;
      } else {
        ns_[prefix] = uri;
      }
    }
    XQ_ASSIGN_OR_RETURN(node->name,
                        ResolveLexical(raw_name, NameKind::kElement));
    for (auto& [attr_raw, attr] : raw_attrs) {
      XQ_ASSIGN_OR_RETURN(attr.name,
                          ResolveLexical(attr_raw, NameKind::kAttribute));
      for (const DirectNode::Attr& earlier : node->attrs) {
        if (earlier.name == attr.name) {
          return Status::StaticError(
              "XQST0040", "attribute " + attr_raw + " appears twice on <" +
                              raw_name + ">");
        }
      }
      node->attrs.push_back(std::move(attr));
    }

    auto restore_ns = [&]() {
      ns_ = saved_ns;
      default_elem_ns_ = saved_default;
    };

    if (RawPeek() == '/') {
      ++rpos_;
      if (RawEof() || RawPeek() != '>') {
        restore_ns();
        return Status::SyntaxError("expected '>' in constructor");
      }
      ++rpos_;
      restore_ns();
      return node;
    }
    ++rpos_;  // '>'

    // Content.
    std::string text;
    auto flush_text = [&]() {
      // Boundary whitespace is stripped (XQuery default).
      if (text.empty()) return;
      if (!TrimWhitespace(text).empty()) {
        auto t = std::make_unique<DirectNode>();
        t->kind = DirectNode::Kind::kText;
        t->text = text;
        node->children.push_back(std::move(t));
      }
      text.clear();
    };

    while (true) {
      if (RawEof()) {
        restore_ns();
        return Status::SyntaxError("unterminated element constructor");
      }
      char c = RawPeek();
      if (c == '<') {
        if (RawLookingAt("</")) {
          flush_text();
          rpos_ += 2;
          XQ_ASSIGN_OR_RETURN(std::string end_name, ScanRawName());
          if (end_name != raw_name) {
            restore_ns();
            return Status::SyntaxError("mismatched constructor end tag </" +
                                       end_name + ">");
          }
          RawSkipWs();
          if (RawEof() || RawPeek() != '>') {
            restore_ns();
            return Status::SyntaxError("expected '>' after end tag");
          }
          ++rpos_;
          restore_ns();
          return node;
        }
        if (RawLookingAt("<!--")) {
          flush_text();
          size_t end = raw_.find("-->", rpos_ + 4);
          if (end == std::string_view::npos) {
            restore_ns();
            return Status::SyntaxError("unterminated comment");
          }
          auto cm = std::make_unique<DirectNode>();
          cm->kind = DirectNode::Kind::kComment;
          cm->text = std::string(raw_.substr(rpos_ + 4, end - rpos_ - 4));
          node->children.push_back(std::move(cm));
          rpos_ = end + 3;
          continue;
        }
        if (RawLookingAt("<![CDATA[")) {
          size_t end = raw_.find("]]>", rpos_ + 9);
          if (end == std::string_view::npos) {
            restore_ns();
            return Status::SyntaxError("unterminated CDATA");
          }
          // CDATA is literal text, never boundary-stripped.
          std::string cdata(raw_.substr(rpos_ + 9, end - rpos_ - 9));
          rpos_ = end + 3;
          if (!cdata.empty()) {
            flush_text();
            auto t = std::make_unique<DirectNode>();
            t->kind = DirectNode::Kind::kText;
            t->text = std::move(cdata);
            node->children.push_back(std::move(t));
          }
          continue;
        }
        if (RawLookingAt("<?")) {
          flush_text();
          size_t end = raw_.find("?>", rpos_ + 2);
          if (end == std::string_view::npos) {
            restore_ns();
            return Status::SyntaxError("unterminated PI");
          }
          auto pi = std::make_unique<DirectNode>();
          pi->kind = DirectNode::Kind::kPI;
          std::string content(raw_.substr(rpos_ + 2, end - rpos_ - 2));
          size_t sp = content.find(' ');
          pi->name = xml::QName(content.substr(0, sp));
          if (sp != std::string::npos) {
            pi->text = std::string(TrimWhitespace(content.substr(sp + 1)));
          }
          node->children.push_back(std::move(pi));
          rpos_ = end + 2;
          continue;
        }
        flush_text();
        XQ_ASSIGN_OR_RETURN(auto child, ScanElement());
        node->children.push_back(std::move(child));
        continue;
      }
      if (c == '{') {
        if (rpos_ + 1 < raw_.size() && raw_[rpos_ + 1] == '{') {
          text.push_back('{');
          rpos_ += 2;
          continue;
        }
        flush_text();
        ++rpos_;
        XQ_ASSIGN_OR_RETURN(ExprPtr inner, ScanEnclosedExpr());
        auto en = std::make_unique<DirectNode>();
        en->kind = DirectNode::Kind::kEnclosedExpr;
        en->expr = std::move(inner);
        node->children.push_back(std::move(en));
        continue;
      }
      if (c == '}') {
        if (rpos_ + 1 < raw_.size() && raw_[rpos_ + 1] == '}') {
          text.push_back('}');
          rpos_ += 2;
          continue;
        }
        restore_ns();
        return Status::SyntaxError("'}' must be escaped as '}}' in content");
      }
      if (c == '&') {
        size_t semi = raw_.find(';', rpos_);
        if (semi == std::string_view::npos) {
          restore_ns();
          return Status::SyntaxError("unterminated entity reference");
        }
        XQ_ASSIGN_OR_RETURN(
            std::string decoded,
            xml::DecodeEntities(raw_.substr(rpos_, semi - rpos_ + 1)));
        text += decoded;
        rpos_ = semi + 1;
        continue;
      }
      text.push_back(c);
      ++rpos_;
    }
  }

  // ---------------------------------------------------- FLWOR & friends ---

  Result<ExprPtr> ParseFLWOR() {
    ExprPtr e = MakeExpr(ExprKind::kFLWOR);
    while (AtName("for") || AtName("let")) {
      bool is_for = AtName("for");
      Next();
      while (true) {
        Clause clause;
        clause.kind = is_for ? Clause::Kind::kFor : Clause::Kind::kLet;
        clause.source_pos = Peek().pos;
        XQ_ASSIGN_OR_RETURN(clause.var, ParseVarName());
        if (EatName("as")) {
          XQ_RETURN_NOT_OK(ParseSequenceType().status());
        }
        if (is_for && EatName("at")) {
          XQ_ASSIGN_OR_RETURN(clause.pos_var, ParseVarName());
        }
        if (is_for) {
          XQ_RETURN_NOT_OK(ExpectName("in"));
        } else if (!EatSymbol(":=") && !EatSymbol("=")) {
          return Err("expected ':=' in let clause");
        }
        XQ_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
        e->clauses.push_back(std::move(clause));
        if (!EatSymbol(",")) break;
      }
    }
    if (EatName("where")) {
      XQ_ASSIGN_OR_RETURN(e->where, ParseExprSingle());
    }
    if (AtName("order") && Peek(1).IsName("by")) {
      Next();
      Next();
      while (true) {
        OrderSpec spec;
        XQ_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
        if (EatName("ascending")) {
        } else if (EatName("descending")) {
          spec.descending = true;
        }
        if (EatName("empty")) {
          if (EatName("greatest")) spec.empty_greatest = true;
          else XQ_RETURN_NOT_OK(ExpectName("least"));
        }
        e->order_specs.push_back(std::move(spec));
        if (!EatSymbol(",")) break;
      }
    } else if (AtName("stable") && Peek(1).IsName("order")) {
      Next();
      Next();
      XQ_RETURN_NOT_OK(ExpectName("by"));
      while (true) {
        OrderSpec spec;
        XQ_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
        if (EatName("descending")) spec.descending = true;
        else EatName("ascending");
        e->order_specs.push_back(std::move(spec));
        if (!EatSymbol(",")) break;
      }
    }
    XQ_RETURN_NOT_OK(ExpectName("return"));
    XQ_ASSIGN_OR_RETURN(ExprPtr ret, ParseExprSingle());
    e->kids.push_back(std::move(ret));
    return e;
  }

  Result<ExprPtr> ParseTypeswitch() {
    Next();  // typeswitch
    XQ_RETURN_NOT_OK(ExpectSymbol("("));
    ExprPtr e = MakeExpr(ExprKind::kTypeswitch);
    XQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    XQ_RETURN_NOT_OK(ExpectSymbol(")"));
    e->kids.push_back(std::move(operand));
    while (AtName("case")) {
      Next();
      Clause clause;
      clause.source_pos = Peek().pos;
      if (Peek().kind == TokKind::kVariable) {
        XQ_ASSIGN_OR_RETURN(clause.var, ParseVarName());
        XQ_RETURN_NOT_OK(ExpectName("as"));
      }
      SequenceType st;
      XQ_ASSIGN_OR_RETURN(st, ParseSequenceType());
      XQ_RETURN_NOT_OK(ExpectName("return"));
      XQ_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
      e->clauses.push_back(std::move(clause));
      e->case_types.push_back(st);
    }
    if (e->clauses.empty()) {
      return Err("typeswitch requires at least one case clause");
    }
    XQ_RETURN_NOT_OK(ExpectName("default"));
    if (Peek().kind == TokKind::kVariable) {
      XQ_ASSIGN_OR_RETURN(e->qname, ParseVarName());
    }
    XQ_RETURN_NOT_OK(ExpectName("return"));
    XQ_ASSIGN_OR_RETURN(ExprPtr dflt, ParseExprSingle());
    e->kids.push_back(std::move(dflt));
    return e;
  }

  Result<ExprPtr> ParseQuantified() {
    ExprPtr e = MakeExpr(ExprKind::kQuantified);
    e->quant_every = AtName("every");
    Next();
    while (true) {
      Clause clause;
      clause.kind = Clause::Kind::kFor;
      clause.source_pos = Peek().pos;
      XQ_ASSIGN_OR_RETURN(clause.var, ParseVarName());
      if (EatName("as")) {
        XQ_RETURN_NOT_OK(ParseSequenceType().status());
      }
      XQ_RETURN_NOT_OK(ExpectName("in"));
      XQ_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
      e->clauses.push_back(std::move(clause));
      if (!EatSymbol(",")) break;
    }
    XQ_RETURN_NOT_OK(ExpectName("satisfies"));
    XQ_ASSIGN_OR_RETURN(ExprPtr test, ParseExprSingle());
    e->kids.push_back(std::move(test));
    return e;
  }

  Result<ExprPtr> ParseIf() {
    Next();  // if
    XQ_RETURN_NOT_OK(ExpectSymbol("("));
    ExprPtr e = MakeExpr(ExprKind::kIf);
    XQ_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    XQ_RETURN_NOT_OK(ExpectSymbol(")"));
    XQ_RETURN_NOT_OK(ExpectName("then"));
    XQ_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("else"));
    XQ_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExprSingle());
    e->kids.push_back(std::move(cond));
    e->kids.push_back(std::move(then_e));
    e->kids.push_back(std::move(else_e));
    return e;
  }

  // ------------------------------------------------------------ updates ---

  Result<ExprPtr> ParseInsert() {
    Next();  // insert
    Next();  // node | nodes
    ExprPtr e = MakeExpr(ExprKind::kInsert);
    XQ_ASSIGN_OR_RETURN(ExprPtr source, ParseExprSingle());
    if (EatName("into")) {
      e->insert_mode = InsertMode::kInto;
    } else if (AtName("as")) {
      Next();
      if (EatName("first")) {
        e->insert_mode = InsertMode::kAsFirstInto;
      } else {
        XQ_RETURN_NOT_OK(ExpectName("last"));
        e->insert_mode = InsertMode::kAsLastInto;
      }
      XQ_RETURN_NOT_OK(ExpectName("into"));
    } else if (EatName("before")) {
      e->insert_mode = InsertMode::kBefore;
    } else if (EatName("after")) {
      e->insert_mode = InsertMode::kAfter;
    } else {
      return Err("expected into/before/after in insert expression");
    }
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    e->kids.push_back(std::move(source));
    e->kids.push_back(std::move(target));
    return e;
  }

  Result<ExprPtr> ParseDelete() {
    Next();  // delete
    Next();  // node | nodes
    ExprPtr e = MakeExpr(ExprKind::kDelete);
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    e->kids.push_back(std::move(target));
    return e;
  }

  Result<ExprPtr> ParseReplace() {
    Next();  // replace
    ExprPtr e = MakeExpr(ExprKind::kReplace);
    if (EatName("value")) {
      XQ_RETURN_NOT_OK(ExpectName("of"));
      e->replace_value_of = true;
      // The paper's examples write "replace value of //x" without the
      // standard "node" keyword (§4.4); accept both.
      EatName("node");
    } else {
      XQ_RETURN_NOT_OK(ExpectName("node"));
    }
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("with"));
    XQ_ASSIGN_OR_RETURN(ExprPtr source, ParseExprSingle());
    e->kids.push_back(std::move(target));
    e->kids.push_back(std::move(source));
    return e;
  }

  Result<ExprPtr> ParseRename() {
    Next();  // rename
    Next();  // node
    ExprPtr e = MakeExpr(ExprKind::kRename);
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("as"));
    XQ_ASSIGN_OR_RETURN(ExprPtr name, ParseExprSingle());
    e->kids.push_back(std::move(target));
    e->kids.push_back(std::move(name));
    return e;
  }

  Result<ExprPtr> ParseTransform() {
    Next();  // copy
    ExprPtr e = MakeExpr(ExprKind::kTransform);
    XQ_ASSIGN_OR_RETURN(e->qname, ParseVarName());
    if (!EatSymbol(":=")) return Err("expected ':=' in copy clause");
    XQ_ASSIGN_OR_RETURN(ExprPtr source, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("modify"));
    XQ_ASSIGN_OR_RETURN(ExprPtr modify, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("return"));
    XQ_ASSIGN_OR_RETURN(ExprPtr ret, ParseExprSingle());
    e->kids.push_back(std::move(source));
    e->kids.push_back(std::move(modify));
    e->kids.push_back(std::move(ret));
    return e;
  }

  // --------------------------------------------------- browser extension ---

  Result<ExprPtr> ParseEventAttach() {
    Next();  // on
    Next();  // event
    ExprPtr e = MakeExpr(ExprKind::kEventAttach);
    XQ_ASSIGN_OR_RETURN(ExprPtr event_name, ParseExprSingle());
    if (EatName("behind")) {
      e->behind = true;
    } else {
      XQ_RETURN_NOT_OK(ExpectName("at"));
    }
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    bool detach = false;
    if (EatName("attach")) {
    } else if (EatName("detach")) {
      detach = true;
    } else {
      return Err("expected 'attach' or 'detach'");
    }
    XQ_RETURN_NOT_OK(ExpectName("listener"));
    if (Peek().kind != TokKind::kName) return Err("expected listener name");
    std::string raw = Next().text;
    if (raw.find(':') == std::string::npos) raw = "local:" + raw;
    XQ_ASSIGN_OR_RETURN(e->qname, ResolveLexical(raw, NameKind::kFunction));
    e->kids.push_back(std::move(event_name));
    e->kids.push_back(std::move(target));
    if (detach) e->kind = ExprKind::kEventDetach;
    return e;
  }

  Result<ExprPtr> ParseEventTrigger() {
    Next();  // trigger
    Next();  // event
    ExprPtr e = MakeExpr(ExprKind::kEventTrigger);
    XQ_ASSIGN_OR_RETURN(ExprPtr event_name, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("at"));
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    e->kids.push_back(std::move(event_name));
    e->kids.push_back(std::move(target));
    return e;
  }

  Result<ExprPtr> ParseSetStyle() {
    Next();  // set
    Next();  // style
    ExprPtr e = MakeExpr(ExprKind::kSetStyle);
    XQ_ASSIGN_OR_RETURN(ExprPtr property, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("of"));
    // The target parses below RangeExpr so the "to" keyword of this
    // production is not swallowed as a range operator.
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseAdditive());
    XQ_RETURN_NOT_OK(ExpectName("to"));
    XQ_ASSIGN_OR_RETURN(ExprPtr value, ParseExprSingle());
    e->kids.push_back(std::move(property));
    e->kids.push_back(std::move(target));
    e->kids.push_back(std::move(value));
    return e;
  }

  Result<ExprPtr> ParseGetStyle() {
    Next();  // get
    Next();  // style
    ExprPtr e = MakeExpr(ExprKind::kGetStyle);
    XQ_ASSIGN_OR_RETURN(ExprPtr property, ParseExprSingle());
    XQ_RETURN_NOT_OK(ExpectName("of"));
    XQ_ASSIGN_OR_RETURN(ExprPtr target, ParseExprSingle());
    e->kids.push_back(std::move(property));
    e->kids.push_back(std::move(target));
    return e;
  }

  // ------------------------------------------------------ sequence types ---

  Result<SequenceType> ParseSequenceType() {
    SequenceType st;
    st.declared = true;
    if (AtName("empty-sequence") && Peek(1).IsSymbol("(")) {
      Next();
      Next();
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      st.item = SequenceType::ItemKind::kEmptySequence;
      return st;
    }
    if (Peek().kind != TokKind::kName) return Err("expected a type name");
    std::string raw = Next().text;
    if (AtSymbol("(")) {
      Next();
      // Generic kind tests; inner name tests accepted and ignored.
      while (!AtSymbol(")") && Peek().kind != TokKind::kEof) Next();
      XQ_RETURN_NOT_OK(ExpectSymbol(")"));
      if (raw == "item") st.item = SequenceType::ItemKind::kAnyItem;
      else if (raw == "node") st.item = SequenceType::ItemKind::kAnyNode;
      else if (raw == "element") st.item = SequenceType::ItemKind::kElement;
      else if (raw == "attribute") st.item = SequenceType::ItemKind::kAttribute;
      else if (raw == "text") st.item = SequenceType::ItemKind::kText;
      else if (raw == "document-node") {
        st.item = SequenceType::ItemKind::kDocument;
      } else {
        return Err("unknown kind test '" + raw + "'");
      }
    } else {
      st.item = SequenceType::ItemKind::kAtomic;
      XQ_ASSIGN_OR_RETURN(xml::QName q, ResolveLexical(raw, NameKind::kType));
      XQ_ASSIGN_OR_RETURN(st.atomic, AtomicTypeFromQName(q));
    }
    if (AtSymbol("?")) {
      Next();
      st.occ = SequenceType::Occurrence::kOptional;
    } else if (AtSymbol("*")) {
      Next();
      st.occ = SequenceType::Occurrence::kStar;
    } else if (AtSymbol("+")) {
      Next();
      st.occ = SequenceType::Occurrence::kPlus;
    }
    return st;
  }

  Result<xdm::AtomicType> AtomicTypeFromQName(const xml::QName& q) {
    if (q.ns() != xml::kXsNamespace) {
      return Err("unknown type " + q.Lexical());
    }
    const std::string& n = q.local();
    using AT = xdm::AtomicType;
    if (n == "string") return AT::kString;
    if (n == "boolean") return AT::kBoolean;
    if (n == "integer" || n == "int" || n == "long" || n == "short") {
      return AT::kInteger;
    }
    if (n == "decimal") return AT::kDecimal;
    if (n == "double" || n == "float") return AT::kDouble;
    if (n == "untypedAtomic") return AT::kUntypedAtomic;
    if (n == "anyURI") return AT::kAnyUri;
    if (n == "QName") return AT::kQName;
    if (n == "dateTime") return AT::kDateTime;
    if (n == "date") return AT::kDate;
    if (n == "time") return AT::kTime;
    if (n == "dayTimeDuration" || n == "duration") return AT::kDayTimeDuration;
    if (n == "anyAtomicType") return AT::kUntypedAtomic;
    return Err("unsupported xs type xs:" + n);
  }

  Lexer lex_;
  Module* module_ = nullptr;
  std::unordered_map<std::string, std::string> ns_;
  std::string default_elem_ns_;
  // Raw-scan state for direct constructors.
  std::string_view raw_;
  size_t rpos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Module>> ParseModule(std::string_view query) {
  ParserImpl parser(query);
  return parser.ParseModuleAll();
}

Result<std::unique_ptr<Module>> ParseExpression(std::string_view expr) {
  return ParseModule(expr);
}

}  // namespace xqib::xquery
