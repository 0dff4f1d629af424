#include "sql/sql.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>

#include "util/check.h"
#include "util/string_util.h"
#include "util/union_find.h"

namespace pdb {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class SqlTok {
  kIdent,
  kInteger,
  kFloat,  // only valid in WITH STDERR; WHERE literals stay integers
  kString,
  kComma,
  kDot,
  kEquals,
  kLParen,
  kRParen,
  kSelect,
  kFrom,
  kWhere,
  kAnd,
  kAs,
  kWith,
  kProb,
  kEnd,
};

struct SqlToken {
  SqlTok kind;
  std::string text;
  size_t pos = 0;
};

std::string ToUpper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

Result<std::vector<SqlToken>> Tokenize(const std::string& text) {
  std::vector<SqlToken> out;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      std::string word = text.substr(i, j - i);
      std::string upper = ToUpper(word);
      SqlTok kind = SqlTok::kIdent;
      if (upper == "SELECT") kind = SqlTok::kSelect;
      else if (upper == "FROM") kind = SqlTok::kFrom;
      else if (upper == "WHERE") kind = SqlTok::kWhere;
      else if (upper == "AND") kind = SqlTok::kAnd;
      else if (upper == "AS") kind = SqlTok::kAs;
      else if (upper == "WITH") kind = SqlTok::kWith;
      else if (upper == "PROB") kind = SqlTok::kProb;
      out.push_back({kind, std::move(word), start});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      size_t j = i + 1;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      bool is_float = false;
      // Fraction: '.' followed by a digit (a bare '.' stays the kDot of a
      // qualified column reference).
      if (j + 1 < text.size() && text[j] == '.' &&
          std::isdigit(static_cast<unsigned char>(text[j + 1]))) {
        is_float = true;
        j += 2;
        while (j < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[j]))) {
          ++j;
        }
      }
      // Exponent: e/E, optional sign, digits.
      if (j < text.size() && (text[j] == 'e' || text[j] == 'E')) {
        size_t k = j + 1;
        if (k < text.size() && (text[k] == '+' || text[k] == '-')) ++k;
        if (k < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[k]))) {
          is_float = true;
          j = k + 1;
          while (j < text.size() &&
                 std::isdigit(static_cast<unsigned char>(text[j]))) {
            ++j;
          }
        }
      }
      out.push_back({is_float ? SqlTok::kFloat : SqlTok::kInteger,
                     text.substr(i, j - i), start});
      i = j;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < text.size() && text[j] != '\'') ++j;
      if (j >= text.size()) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      out.push_back({SqlTok::kString, text.substr(i + 1, j - i - 1), start});
      i = j + 1;
      continue;
    }
    switch (c) {
      case ',':
        out.push_back({SqlTok::kComma, ",", start});
        break;
      case '.':
        out.push_back({SqlTok::kDot, ".", start});
        break;
      case '=':
        out.push_back({SqlTok::kEquals, "=", start});
        break;
      case '(':
        out.push_back({SqlTok::kLParen, "(", start});
        break;
      case ')':
        out.push_back({SqlTok::kRParen, ")", start});
        break;
      case ';':
        break;  // trailing semicolon is tolerated
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
    ++i;
  }
  out.push_back({SqlTok::kEnd, "", text.size()});
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class SqlParser {
 public:
  explicit SqlParser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<SqlSelect> Parse() {
    SqlSelect select;
    PDB_RETURN_NOT_OK(Expect(SqlTok::kSelect, "SELECT"));
    if (Peek().kind == SqlTok::kProb) {
      Advance();
      PDB_RETURN_NOT_OK(Expect(SqlTok::kLParen, "'('"));
      PDB_RETURN_NOT_OK(Expect(SqlTok::kRParen, "')'"));
      select.boolean = true;
    } else {
      for (;;) {
        PDB_ASSIGN_OR_RETURN(SqlColumnRef col, ParseColumn());
        select.columns.push_back(std::move(col));
        if (Peek().kind != SqlTok::kComma) break;
        Advance();
      }
    }
    PDB_RETURN_NOT_OK(Expect(SqlTok::kFrom, "FROM"));
    for (;;) {
      if (Peek().kind != SqlTok::kIdent) {
        return Status::InvalidArgument(
            StrFormat("expected table name at offset %zu", Peek().pos));
      }
      SqlTableRef ref;
      ref.table = Advance().text;
      ref.alias = ref.table;
      if (Peek().kind == SqlTok::kAs) Advance();
      if (Peek().kind == SqlTok::kIdent) ref.alias = Advance().text;
      select.from.push_back(std::move(ref));
      if (Peek().kind != SqlTok::kComma) break;
      Advance();
    }
    if (Peek().kind == SqlTok::kWhere) {
      Advance();
      for (;;) {
        PDB_ASSIGN_OR_RETURN(SqlCondition cond, ParseCondition());
        select.where.push_back(std::move(cond));
        if (Peek().kind != SqlTok::kAnd) break;
        Advance();
      }
    }
    if (Peek().kind == SqlTok::kWith) {
      Advance();
      if (Peek().kind != SqlTok::kIdent ||
          ToUpper(Peek().text) != "STDERR") {
        return Status::InvalidArgument(
            StrFormat("expected STDERR after WITH at offset %zu",
                      Peek().pos));
      }
      Advance();
      if (Peek().kind != SqlTok::kFloat && Peek().kind != SqlTok::kInteger) {
        return Status::InvalidArgument(
            StrFormat("expected a number after WITH STDERR at offset %zu",
                      Peek().pos));
      }
      select.target_stderr = std::strtod(Advance().text.c_str(), nullptr);
      if (!(select.target_stderr > 0.0)) {
        return Status::InvalidArgument("WITH STDERR must be positive");
      }
    }
    PDB_RETURN_NOT_OK(Expect(SqlTok::kEnd, "end of query"));
    return select;
  }

 private:
  const SqlToken& Peek() const { return tokens_[pos_]; }
  const SqlToken& Advance() { return tokens_[pos_++]; }

  Status Expect(SqlTok kind, const char* what) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument(
          StrFormat("expected %s at offset %zu, found '%s'", what, Peek().pos,
                    Peek().text.c_str()));
    }
    Advance();
    return Status::OK();
  }

  Result<SqlColumnRef> ParseColumn() {
    if (Peek().kind != SqlTok::kIdent) {
      return Status::InvalidArgument(
          StrFormat("expected column at offset %zu", Peek().pos));
    }
    SqlColumnRef ref;
    std::string first = Advance().text;
    if (Peek().kind == SqlTok::kDot) {
      Advance();
      if (Peek().kind != SqlTok::kIdent) {
        return Status::InvalidArgument(
            StrFormat("expected column name after '.' at offset %zu",
                      Peek().pos));
      }
      ref.alias = std::move(first);
      ref.column = Advance().text;
    } else {
      ref.column = std::move(first);
    }
    return ref;
  }

  Result<SqlCondition> ParseCondition() {
    SqlCondition cond;
    PDB_RETURN_NOT_OK(ParseOperand(&cond.lhs_kind, &cond.lhs_column,
                                   &cond.lhs_literal));
    PDB_RETURN_NOT_OK(Expect(SqlTok::kEquals, "'='"));
    PDB_RETURN_NOT_OK(ParseOperand(&cond.rhs_kind, &cond.rhs_column,
                                   &cond.rhs_literal));
    return cond;
  }

  Status ParseOperand(SqlCondition::OperandKind* kind, SqlColumnRef* column,
                      Value* literal) {
    switch (Peek().kind) {
      case SqlTok::kIdent: {
        *kind = SqlCondition::OperandKind::kColumn;
        PDB_ASSIGN_OR_RETURN(*column, ParseColumn());
        return Status::OK();
      }
      case SqlTok::kInteger:
        *kind = SqlCondition::OperandKind::kLiteral;
        *literal = Value(static_cast<int64_t>(std::stoll(Advance().text)));
        return Status::OK();
      case SqlTok::kString:
        *kind = SqlCondition::OperandKind::kLiteral;
        *literal = Value(Advance().text);
        return Status::OK();
      case SqlTok::kFloat:
        return Status::InvalidArgument(
            StrFormat("floating-point literal at offset %zu; WHERE "
                      "literals are integers or strings (floats are only "
                      "valid in WITH STDERR)",
                      Peek().pos));
      default:
        return Status::InvalidArgument(
            StrFormat("expected column or literal at offset %zu",
                      Peek().pos));
    }
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlSelect> ParseSql(const std::string& text) {
  PDB_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, Tokenize(text));
  SqlParser parser(std::move(tokens));
  return parser.Parse();
}

bool StripExplainPrefix(const std::string& text, bool* analyze,
                        std::string* rest) {
  // Match one identifier word at `i`, case-insensitively.
  auto match_word = [&text](size_t i, const char* word, size_t* end) {
    size_t j = i;
    const char* w = word;
    while (*w != '\0') {
      if (j >= text.size() ||
          std::toupper(static_cast<unsigned char>(text[j])) != *w) {
        return false;
      }
      ++j;
      ++w;
    }
    // Word boundary: the next character must not extend the identifier.
    if (j < text.size() && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                            text[j] == '_')) {
      return false;
    }
    *end = j;
    return true;
  };
  size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  size_t after = 0;
  if (!match_word(i, "EXPLAIN", &after)) return false;
  i = after;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  bool saw_analyze = match_word(i, "ANALYZE", &after);
  if (saw_analyze) i = after;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  *analyze = saw_analyze;
  *rest = text.substr(i);
  return true;
}

Result<CompiledSql> CompileSql(const SqlSelect& select, const Database& db) {
  // Slot layout: one variable slot per (FROM entry, column).
  struct TableInfo {
    const Relation* relation;
    size_t slot_begin;
  };
  std::map<std::string, size_t> by_alias;  // alias -> FROM index
  std::vector<TableInfo> tables;
  size_t num_slots = 0;
  for (size_t i = 0; i < select.from.size(); ++i) {
    const SqlTableRef& ref = select.from[i];
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(ref.table));
    if (!by_alias.emplace(ref.alias, i).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate table alias '%s'", ref.alias.c_str()));
    }
    tables.push_back({rel, num_slots});
    num_slots += rel->arity();
  }
  if (tables.empty()) {
    return Status::InvalidArgument("FROM list is empty");
  }

  // Resolves a column reference to its slot.
  auto resolve = [&](const SqlColumnRef& ref) -> Result<size_t> {
    if (!ref.alias.empty()) {
      auto it = by_alias.find(ref.alias);
      if (it == by_alias.end()) {
        return Status::NotFound(
            StrFormat("unknown table alias '%s'", ref.alias.c_str()));
      }
      const TableInfo& info = tables[it->second];
      PDB_ASSIGN_OR_RETURN(size_t col,
                           info.relation->schema().IndexOf(ref.column));
      return info.slot_begin + col;
    }
    // Unqualified: must be unambiguous across the FROM list.
    size_t found_slot = 0;
    int matches = 0;
    for (const TableInfo& info : tables) {
      auto col = info.relation->schema().IndexOf(ref.column);
      if (col.ok()) {
        found_slot = info.slot_begin + *col;
        ++matches;
      }
    }
    if (matches == 0) {
      return Status::NotFound(
          StrFormat("unknown column '%s'", ref.column.c_str()));
    }
    if (matches > 1) {
      return Status::InvalidArgument(
          StrFormat("ambiguous column '%s' (qualify it with an alias)",
                    ref.column.c_str()));
    }
    return found_slot;
  };

  // Equalities: unify slots, or pin a constant to a slot class.
  UnionFind uf(num_slots);
  std::map<size_t, Value> pinned;  // representative slot -> constant
  auto pin = [&](size_t slot, const Value& value) -> Status {
    size_t root = uf.Find(slot);
    auto [it, inserted] = pinned.emplace(root, value);
    if (!inserted && !(it->second == value)) {
      return Status::InvalidArgument(
          "contradictory constant constraints (always-false query)");
    }
    return Status::OK();
  };
  for (const SqlCondition& cond : select.where) {
    const bool lhs_col = cond.lhs_kind == SqlCondition::OperandKind::kColumn;
    const bool rhs_col = cond.rhs_kind == SqlCondition::OperandKind::kColumn;
    if (lhs_col && rhs_col) {
      PDB_ASSIGN_OR_RETURN(size_t a, resolve(cond.lhs_column));
      PDB_ASSIGN_OR_RETURN(size_t b, resolve(cond.rhs_column));
      // Merge, carrying any pinned constants across.
      size_t ra = uf.Find(a);
      size_t rb = uf.Find(b);
      if (ra == rb) continue;
      auto ita = pinned.find(ra);
      auto itb = pinned.find(rb);
      if (ita != pinned.end() && itb != pinned.end() &&
          !(ita->second == itb->second)) {
        return Status::InvalidArgument(
            "contradictory constant constraints (always-false query)");
      }
      Value keep;
      bool has = false;
      if (ita != pinned.end()) {
        keep = ita->second;
        has = true;
        pinned.erase(ita);
      }
      if (itb != pinned.end()) {
        keep = itb->second;
        has = true;
        pinned.erase(itb);
      }
      uf.Union(ra, rb);
      if (has) PDB_RETURN_NOT_OK(pin(uf.Find(ra), keep));
    } else if (lhs_col || rhs_col) {
      const SqlColumnRef& col = lhs_col ? cond.lhs_column : cond.rhs_column;
      const Value& lit = lhs_col ? cond.rhs_literal : cond.lhs_literal;
      PDB_ASSIGN_OR_RETURN(size_t slot, resolve(col));
      PDB_RETURN_NOT_OK(pin(slot, lit));
    } else {
      // literal = literal: either trivially true or always false.
      if (!(cond.lhs_literal == cond.rhs_literal)) {
        return Status::InvalidArgument(
            "contradictory constant constraints (always-false query)");
      }
    }
  }

  // Build the CQ: each slot class is a variable "v<root>" unless pinned.
  auto term_for = [&](size_t slot) -> Term {
    size_t root = uf.Find(slot);
    auto it = pinned.find(root);
    if (it != pinned.end()) return Term::Const(it->second);
    return Term::Var(StrFormat("v%zu", root));
  };
  CompiledSql out;
  out.boolean = select.boolean;
  out.target_stderr = select.target_stderr;
  for (size_t i = 0; i < tables.size(); ++i) {
    std::vector<Term> args;
    args.reserve(tables[i].relation->arity());
    for (size_t j = 0; j < tables[i].relation->arity(); ++j) {
      args.push_back(term_for(tables[i].slot_begin + j));
    }
    out.cq.AddAtom(Atom(select.from[i].table, std::move(args)));
  }
  for (const SqlColumnRef& ref : select.columns) {
    PDB_ASSIGN_OR_RETURN(size_t slot, resolve(ref));
    Term t = term_for(slot);
    if (t.is_constant()) {
      return Status::Unsupported(
          StrFormat("select column '%s' is pinned to a constant; selecting "
                    "constants is not supported",
                    ref.column.c_str()));
    }
    out.head_vars.push_back(t.var());
  }
  // Deduplicate head variables (SELECT a.x, b.y with a.x = b.y).
  std::vector<std::string> dedup;
  for (const std::string& v : out.head_vars) {
    if (std::find(dedup.begin(), dedup.end(), v) == dedup.end()) {
      dedup.push_back(v);
    }
  }
  out.head_vars = std::move(dedup);
  return out;
}

Result<CompiledSql> CompileSql(const std::string& text, const Database& db) {
  PDB_ASSIGN_OR_RETURN(SqlSelect select, ParseSql(text));
  return CompileSql(select, db);
}

}  // namespace pdb
