#include "lexer.hpp"

#include <cctype>
#include <cstddef>

namespace quicsteps::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Raw-string / string-literal prefixes. Anything ending in R introduces a
/// raw string when immediately followed by a quote.
bool is_string_prefix(const std::string& s) {
  return s == "R" || s == "u8R" || s == "uR" || s == "UR" || s == "LR" ||
         s == "L" || s == "u8" || s == "u" || s == "U";
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  LexResult run();

 private:
  char cur() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char peek(std::size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }
  bool eof() const { return pos_ >= text_.size(); }

  /// Consumes one byte, maintaining line/col. Newlines must go through
  /// newline() instead so preprocessor state stays correct.
  void adv() {
    if (cur() == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  /// True (and consumed) when the cursor sits on a backslash-newline
  /// splice; the logical line continues.
  bool splice() {
    if (cur() == '\\' && peek(1) == '\n') {
      pos_ += 2;
      ++line_;
      col_ = 1;
      return true;
    }
    if (cur() == '\\' && peek(1) == '\r' && peek(2) == '\n') {
      pos_ += 3;
      ++line_;
      col_ = 1;
      return true;
    }
    return false;
  }

  /// Skips spaces/tabs (never newlines). Returns false at end of line.
  void skip_blanks() {
    while (!eof()) {
      if (splice()) continue;
      char c = cur();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        adv();
      } else {
        break;
      }
    }
  }

  Token make(TokKind kind, std::string text, int line, int col) const {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line;
    t.col = col;
    t.in_pp = in_pp_;
    return t;
  }

  std::string lex_ident_text() {
    std::string s;
    while (!eof()) {
      if (splice()) continue;
      if (!ident_char(cur())) break;
      s += cur();
      adv();
    }
    return s;
  }

  void lex_string(LexResult* out);
  void lex_raw_string(LexResult* out);
  void lex_char_lit(LexResult* out);
  void lex_number(LexResult* out);
  void lex_pp_directive(LexResult* out);
  void lex_header_name(LexResult* out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  bool in_pp_ = false;
};

void Lexer::lex_string(LexResult* out) {
  const int line = line_, col = col_;
  adv();  // opening quote
  std::string body;
  while (!eof() && cur() != '"' && cur() != '\n') {
    if (cur() == '\\' && peek(1) != '\0') {
      body += cur();
      adv();
      body += cur();
      adv();
      continue;
    }
    body += cur();
    adv();
  }
  if (cur() == '"') adv();
  out->tokens.push_back(make(TokKind::kString, std::move(body), line, col));
}

void Lexer::lex_raw_string(LexResult* out) {
  const int line = line_, col = col_;
  adv();  // opening quote
  std::string delim;
  while (!eof() && cur() != '(' && cur() != '\n' && delim.size() < 16) {
    delim += cur();
    adv();
  }
  if (cur() == '(') adv();
  const std::string closer = ")" + delim + "\"";
  std::string body;
  while (!eof()) {
    if (text_.compare(pos_, closer.size(), closer) == 0) {
      for (std::size_t i = 0; i < closer.size(); ++i) adv();
      break;
    }
    body += cur();
    adv();
  }
  out->tokens.push_back(make(TokKind::kString, std::move(body), line, col));
}

void Lexer::lex_char_lit(LexResult* out) {
  const int line = line_, col = col_;
  adv();  // opening quote
  std::string body;
  while (!eof() && cur() != '\'' && cur() != '\n') {
    if (cur() == '\\' && peek(1) != '\0') {
      body += cur();
      adv();
      body += cur();
      adv();
      continue;
    }
    body += cur();
    adv();
  }
  if (cur() == '\'') adv();
  out->tokens.push_back(make(TokKind::kCharLit, std::move(body), line, col));
}

void Lexer::lex_number(LexResult* out) {
  const int line = line_, col = col_;
  std::string body;
  // pp-number: digits, identifier chars, '.', digit separators, and
  // sign characters directly after an exponent marker. This swallows
  // 1'000'000 without ever mistaking the separator for a char literal.
  while (!eof()) {
    if (splice()) continue;
    char c = cur();
    if (ident_char(c) || c == '.') {
      body += c;
      adv();
      if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') &&
          (cur() == '+' || cur() == '-')) {
        body += cur();
        adv();
      }
      continue;
    }
    if (c == '\'' && ident_char(peek(1))) {
      body += c;
      adv();
      continue;
    }
    break;
  }
  out->tokens.push_back(make(TokKind::kNumber, std::move(body), line, col));
}

void Lexer::lex_header_name(LexResult* out) {
  skip_blanks();
  const int line = line_, col = col_;
  char open = cur();
  if (open != '"' && open != '<') return;
  const char close = open == '"' ? '"' : '>';
  adv();
  std::string path;
  while (!eof() && cur() != close && cur() != '\n') {
    path += cur();
    adv();
  }
  if (cur() == close) adv();
  out->tokens.push_back(make(TokKind::kIncludePath, path, line, col));
  out->includes.push_back({std::move(path), open == '<', line});
}

void Lexer::lex_pp_directive(LexResult* out) {
  in_pp_ = true;
  out->tokens.push_back(make(TokKind::kPunct, "#", line_, col_));
  adv();  // '#'
  skip_blanks();
  if (!ident_start(cur())) return;
  const int line = line_, col = col_;
  std::string name = lex_ident_text();
  out->tokens.push_back(make(TokKind::kIdentifier, name, line, col));
  if (name == "include") {
    lex_header_name(out);
  } else if (name == "pragma") {
    skip_blanks();
    if (ident_start(cur())) {
      const int pl = line_, pc = col_;
      std::string arg = lex_ident_text();
      if (arg == "once") out->has_pragma_once = true;
      out->tokens.push_back(
          make(TokKind::kIdentifier, std::move(arg), pl, pc));
    }
  }
  // The rest of the directive line lexes through the normal loop with
  // in_pp_ still set; a real (unspliced) newline clears it.
}

LexResult Lexer::run() {
  LexResult out;
  bool at_line_start = true;
  while (!eof()) {
    if (splice()) continue;
    char c = cur();
    if (c == '\n') {
      adv();
      in_pp_ = false;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      adv();
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (!eof() && cur() != '\n') {
        if (!splice()) adv();
      }
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      adv();
      adv();
      while (!eof() && !(cur() == '*' && peek(1) == '/')) adv();
      if (!eof()) {
        adv();
        adv();
      }
      continue;
    }
    if (c == '#' && at_line_start) {
      at_line_start = false;
      lex_pp_directive(&out);
      continue;
    }
    at_line_start = false;
    if (c == '"') {
      lex_string(&out);
      continue;
    }
    if (c == '\'') {
      lex_char_lit(&out);
      continue;
    }
    if (ident_start(c)) {
      const int line = line_, col = col_;
      std::string name = lex_ident_text();
      if (cur() == '"' && is_string_prefix(name)) {
        if (name.back() == 'R') {
          lex_raw_string(&out);
        } else {
          lex_string(&out);
        }
        continue;
      }
      out.tokens.push_back(
          make(TokKind::kIdentifier, std::move(name), line, col));
      continue;
    }
    if (digit(c) || (c == '.' && digit(peek(1)))) {
      lex_number(&out);
      continue;
    }
    // Punctuation; the multi-character spellings rules care about come out
    // as single tokens so "::" never reads as two colons and "&&" never
    // reads as a reference capture.
    const int line = line_, col = col_;
    std::string p(1, c);
    if ((c == ':' && peek(1) == ':') || (c == '-' && peek(1) == '>') ||
        (c == '&' && peek(1) == '&') || (c == '|' && peek(1) == '|')) {
      p += peek(1);
      adv();
    }
    adv();
    out.tokens.push_back(make(TokKind::kPunct, std::move(p), line, col));
  }
  return out;
}

}  // namespace

LexResult lex(std::string_view text) { return Lexer(text).run(); }

}  // namespace quicsteps::analyze
