/**
 * @file
 * Differential test of the streaming AIR front end against a reference:
 * a copy of the token-vector lexer and parser, and of the app header
 * tokenizer, that the streaming versions replaced. Both must give the
 * same printed module and the same (ok, error, errorLine) on every
 * corpus app, on generated apps of the heavy perfbench shape, and on
 * every input of the robustness sweeps (parser_sweeps.hh).
 *
 * The copy's one deviation from the original is the range guard on
 * numbers: there std::stoll/std::stoi threw out of the parser, and
 * `regs=N` and `@N` targets were truncated to int.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <stdexcept>
#include <vector>

#include "air/logging.hh"
#include "air/parser.hh"
#include "air/printer.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "framework/known_api.hh"
#include "parser_sweeps.hh"

namespace sierra {
namespace ref {

using namespace air;

namespace {

/** Token categories recognized by the AIR lexer. */
enum class Tok {
    Ident,
    Int,
    Str,
    Punct, //!< one of { } ( ) [ ] : ; , = @ .
    Eof,
};

struct Token {
    Tok kind{Tok::Eof};
    std::string text;
    int64_t intValue{0};
    int line{1};
};

/** Parse failure carrying a message and a line number. */
struct ParseFail : std::runtime_error {
    int line;
    ParseFail(const std::string &msg, int l)
        : std::runtime_error(msg), line(l)
    {
    }
};

bool
isIdentStart(char c)
{
    // '<' admits constructor names like "<init>".
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '$' || c == '<';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '$' || c == '-' || c == '<' || c == '>';
}

/** Whole-input lexer; keeps the parser itself simple. */
class Lexer
{
  public:
    explicit Lexer(const std::string &text) : _text(text) {}

    std::vector<Token> run();

  private:
    void fail(const std::string &msg) { throw ParseFail(msg, _line); }

    const std::string &_text;
    size_t _pos{0};
    int _line{1};
};

std::vector<Token>
Lexer::run()
{
    std::vector<Token> out;
    const std::string punct = "{}()[]:;,=@.";
    while (_pos < _text.size()) {
        char c = _text[_pos];
        if (c == '\n') {
            ++_line;
            ++_pos;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++_pos;
            continue;
        }
        if (c == '#' || (c == '/' && _pos + 1 < _text.size() &&
                         _text[_pos + 1] == '/')) {
            while (_pos < _text.size() && _text[_pos] != '\n')
                ++_pos;
            continue;
        }
        Token t;
        t.line = _line;
        if (isIdentStart(c)) {
            size_t start = _pos;
            while (_pos < _text.size() && isIdentChar(_text[_pos]))
                ++_pos;
            t.kind = Tok::Ident;
            t.text = _text.substr(start, _pos - start);
        } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                   (c == '-' && _pos + 1 < _text.size() &&
                    std::isdigit(
                        static_cast<unsigned char>(_text[_pos + 1])))) {
            size_t start = _pos;
            if (c == '-')
                ++_pos;
            while (_pos < _text.size() &&
                   std::isdigit(static_cast<unsigned char>(_text[_pos]))) {
                ++_pos;
            }
            t.kind = Tok::Int;
            t.text = _text.substr(start, _pos - start);
            try {
                t.intValue = std::stoll(t.text);
            } catch (const std::out_of_range &) {
                fail(strCat("integer literal '", t.text, "' out of range"));
            }
        } else if (c == '"') {
            ++_pos;
            std::string value;
            while (_pos < _text.size() && _text[_pos] != '"') {
                char d = _text[_pos];
                if (d == '\\' && _pos + 1 < _text.size()) {
                    ++_pos;
                    char e = _text[_pos];
                    if (e == 'n')
                        value += '\n';
                    else
                        value += e;
                } else {
                    if (d == '\n')
                        ++_line;
                    value += d;
                }
                ++_pos;
            }
            if (_pos >= _text.size())
                fail("unterminated string literal");
            ++_pos; // closing quote
            t.kind = Tok::Str;
            t.text = std::move(value);
        } else if (punct.find(c) != std::string::npos) {
            t.kind = Tok::Punct;
            t.text = std::string(1, c);
            ++_pos;
        } else {
            fail(strCat("unexpected character '", c, "'"));
        }
        out.push_back(std::move(t));
    }
    Token eof;
    eof.kind = Tok::Eof;
    eof.line = _line;
    out.push_back(eof);
    return out;
}

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    Parser(Module &module, std::vector<Token> tokens)
        : _module(module), _tokens(std::move(tokens))
    {
    }

    void run();

  private:
    const Token &peek() const { return _tokens[_idx]; }
    const Token &next() { return _tokens[_idx++]; }

    [[noreturn]] void
    fail(const std::string &msg)
    {
        throw ParseFail(msg, peek().line);
    }

    bool isPunct(const std::string &p) const
    {
        return peek().kind == Tok::Punct && peek().text == p;
    }
    bool isIdent(const std::string &s) const
    {
        return peek().kind == Tok::Ident && peek().text == s;
    }
    void
    expectPunct(const std::string &p)
    {
        if (!isPunct(p))
            fail(strCat("expected '", p, "', got '", peek().text, "'"));
        next();
    }
    void
    expectIdent(const std::string &s)
    {
        if (!isIdent(s))
            fail(strCat("expected '", s, "', got '", peek().text, "'"));
        next();
    }
    std::string
    expectAnyIdent()
    {
        if (peek().kind != Tok::Ident)
            fail(strCat("expected identifier, got '", peek().text, "'"));
        return next().text;
    }
    int64_t
    expectInt()
    {
        if (peek().kind != Tok::Int)
            fail(strCat("expected integer, got '", peek().text, "'"));
        return next().intValue;
    }
    int
    expectInt32(const char *what)
    {
        int64_t v = peek().intValue;
        if (peek().kind == Tok::Int &&
            (v < std::numeric_limits<int>::min() ||
             v > std::numeric_limits<int>::max()))
            fail(strCat(what, " '", peek().text, "' out of range"));
        return static_cast<int>(expectInt());
    }

    /** Dotted name: Ident ('.' Ident)*. */
    std::string parseDottedName();
    /** Dotted name with optional trailing "[]". */
    Type parseType();
    /** "rN" register token. */
    int parseReg();
    /** Split "a.b.c" into ("a.b", "c"). */
    static std::pair<std::string, std::string>
    splitLast(const std::string &dotted);

    void parseClass();
    void parseMethod(Klass *klass, bool is_static, bool is_abstract);
    Instruction parseInstruction();
    /** Body of an instruction that starts with "rD = ...". */
    Instruction parseAssignment(int dst);
    int parseBranchTarget();

    Module &_module;
    std::vector<Token> _tokens;
    size_t _idx{0};
};

std::string
Parser::parseDottedName()
{
    std::string name = expectAnyIdent();
    while (isPunct(".")) {
        // Lookahead: only consume the dot if an identifier follows.
        if (_tokens[_idx + 1].kind != Tok::Ident)
            break;
        next();
        name += "." + next().text;
    }
    return name;
}

Type
Parser::parseType()
{
    std::string name = parseDottedName();
    if (isPunct("[")) {
        next();
        expectPunct("]");
        return Type::parse(name + "[]");
    }
    return Type::parse(name);
}

int
Parser::parseReg()
{
    const Token &t = peek();
    if (t.kind != Tok::Ident || t.text.size() < 2 || t.text[0] != 'r')
        fail(strCat("expected register, got '", t.text, "'"));
    for (size_t i = 1; i < t.text.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(t.text[i])))
            fail(strCat("expected register, got '", t.text, "'"));
    }
    int reg = 0;
    try {
        reg = std::stoi(t.text.substr(1));
    } catch (const std::out_of_range &) {
        fail(strCat("register '", t.text, "' out of range"));
    }
    next();
    return reg;
}

std::pair<std::string, std::string>
Parser::splitLast(const std::string &dotted)
{
    size_t pos = dotted.rfind('.');
    if (pos == std::string::npos)
        return {"", dotted};
    return {dotted.substr(0, pos), dotted.substr(pos + 1)};
}

void
Parser::run()
{
    while (peek().kind != Tok::Eof)
        parseClass();
}

void
Parser::parseClass()
{
    bool is_interface = false;
    if (isIdent("interface")) {
        is_interface = true;
        next();
    } else {
        expectIdent("class");
    }
    std::string name = parseDottedName();
    std::string super;
    if (isIdent("extends")) {
        next();
        super = parseDottedName();
    }
    std::vector<std::string> ifaces;
    if (isIdent("implements")) {
        next();
        ifaces.push_back(parseDottedName());
        while (isPunct(",")) {
            next();
            ifaces.push_back(parseDottedName());
        }
    }
    if (_module.getClass(name))
        fail(strCat("duplicate class '", name, "'"));
    Klass *k = _module.addClass(name, super);
    k->setInterface(is_interface);
    for (auto &i : ifaces)
        k->addInterface(i);

    expectPunct("{");
    while (!isPunct("}")) {
        bool is_static = false;
        bool is_abstract = false;
        while (isIdent("static") || isIdent("abstract")) {
            if (isIdent("static"))
                is_static = true;
            else
                is_abstract = true;
            next();
        }
        if (isIdent("field")) {
            next();
            std::string fname = expectAnyIdent();
            expectPunct(":");
            Type ftype = parseType();
            k->addField({fname, ftype, is_static});
        } else if (isIdent("method")) {
            next();
            parseMethod(k, is_static, is_abstract);
        } else {
            fail(strCat("expected field or method, got '", peek().text,
                        "'"));
        }
    }
    expectPunct("}");
}

void
Parser::parseMethod(Klass *klass, bool is_static, bool is_abstract)
{
    std::string name = expectAnyIdent();
    expectPunct("(");
    std::vector<Type> params;
    while (!isPunct(")")) {
        expectAnyIdent(); // parameter name "pN" (documentary only)
        expectPunct(":");
        params.push_back(parseType());
        if (isPunct(","))
            next();
    }
    expectPunct(")");
    expectPunct(":");
    Type ret = parseType();

    if (klass->findMethod(name))
        fail(strCat("duplicate method '", klass->name(), ".", name, "'"));
    Method *m = klass->addMethod(name, std::move(params), ret, is_static);
    m->setAbstract(is_abstract);

    if (isPunct(";")) {
        next();
        return;
    }
    // "regs=N { instrs }"
    expectIdent("regs");
    expectPunct("=");
    int num_regs = expectInt32("register count");
    m->setNumRegisters(num_regs);
    expectPunct("{");
    while (!isPunct("}")) {
        // "@N:" index prefix; verified to be sequential.
        expectPunct("@");
        int64_t idx = expectInt();
        if (idx != m->numInstrs())
            fail(strCat("instruction index @", idx, " out of order"));
        expectPunct(":");
        m->instrs().push_back(parseInstruction());
    }
    expectPunct("}");
}

int
Parser::parseBranchTarget()
{
    expectPunct("@");
    return expectInt32("branch target");
}

Instruction
Parser::parseInstruction()
{
    Instruction i;
    const Token &t = peek();
    if (t.kind != Tok::Ident)
        fail(strCat("expected instruction, got '", t.text, "'"));

    const std::string &w = t.text;
    if (w == "nop") {
        next();
        i.op = Opcode::Nop;
        return i;
    }
    if (w == "return-void") {
        next();
        i.op = Opcode::ReturnVoid;
        return i;
    }
    if (w == "return") {
        next();
        i.op = Opcode::Return;
        i.srcs = _module.regs({parseReg()});
        return i;
    }
    if (w == "throw") {
        next();
        i.op = Opcode::Throw;
        i.srcs = _module.regs({parseReg()});
        return i;
    }
    if (w == "goto") {
        next();
        i.op = Opcode::Goto;
        i.target = parseBranchTarget();
        return i;
    }
    if (w == "if") {
        next();
        i.op = Opcode::If;
        int lhs = parseReg();
        std::string cname = expectAnyIdent();
        if (!condFromName(cname, i.cond))
            fail(strCat("bad condition '", cname, "'"));
        i.srcs = _module.regs({lhs, parseReg()});
        expectIdent("goto");
        i.target = parseBranchTarget();
        return i;
    }
    if (w == "ifz") {
        next();
        i.op = Opcode::IfZ;
        i.srcs = _module.regs({parseReg()});
        std::string cname = expectAnyIdent();
        if (!condFromName(cname, i.cond))
            fail(strCat("bad condition '", cname, "'"));
        expectIdent("goto");
        i.target = parseBranchTarget();
        return i;
    }
    if (w == "putfield") {
        next();
        i.op = Opcode::PutField;
        int obj = parseReg();
        expectPunct(".");
        auto [cls, fld] = splitLast(parseDottedName());
        if (cls.empty())
            fail("field reference needs a class name");
        i.field = _module.fieldRef(cls, fld);
        expectPunct("=");
        i.srcs = _module.regs({obj, parseReg()});
        return i;
    }
    if (w == "putstatic") {
        next();
        i.op = Opcode::PutStatic;
        auto [cls, fld] = splitLast(parseDottedName());
        if (cls.empty())
            fail("field reference needs a class name");
        i.field = _module.fieldRef(cls, fld);
        expectPunct("=");
        i.srcs = _module.regs({parseReg()});
        return i;
    }
    if (w == "monitor-enter") {
        next();
        i.op = Opcode::MonitorEnter;
        i.srcs = _module.regs({parseReg()});
        return i;
    }
    if (w == "monitor-exit") {
        next();
        i.op = Opcode::MonitorExit;
        i.srcs = _module.regs({parseReg()});
        return i;
    }
    if (w == "aput") {
        next();
        i.op = Opcode::ArrayPut;
        int arr = parseReg();
        expectPunct("[");
        int idx = parseReg();
        expectPunct("]");
        expectPunct("=");
        i.srcs = _module.regs({arr, idx, parseReg()});
        return i;
    }
    if (w.rfind("invoke-", 0) == 0) {
        // result-less invoke
        return parseAssignment(-1);
    }

    // Everything else starts with a destination register.
    int dst = parseReg();
    expectPunct("=");
    return parseAssignment(dst);
}

Instruction
Parser::parseAssignment(int dst)
{
    Instruction i;
    i.dst = dst;
    const Token &t = peek();
    if (t.kind != Tok::Ident)
        fail(strCat("expected instruction body, got '", t.text, "'"));
    const std::string w = t.text;

    if (w == "const") {
        next();
        if (peek().kind == Tok::Int) {
            i.op = Opcode::ConstInt;
            i.intValue = next().intValue;
        } else if (peek().kind == Tok::Str) {
            i.op = Opcode::ConstStr;
            i.strValue = _module.intern(next().text);
        } else {
            fail("expected const payload");
        }
        return i;
    }
    if (w == "null") {
        next();
        i.op = Opcode::ConstNull;
        return i;
    }
    if (w == "new") {
        next();
        i.op = Opcode::New;
        i.typeName = _module.intern(parseDottedName());
        return i;
    }
    if (w == "new-array") {
        next();
        i.op = Opcode::NewArray;
        i.typeName = _module.intern(parseDottedName());
        expectPunct("[");
        i.srcs = _module.regs({parseReg()});
        expectPunct("]");
        return i;
    }
    if (w == "getfield") {
        next();
        i.op = Opcode::GetField;
        i.srcs = _module.regs({parseReg()});
        expectPunct(".");
        auto [cls, fld] = splitLast(parseDottedName());
        if (cls.empty())
            fail("field reference needs a class name");
        i.field = _module.fieldRef(cls, fld);
        return i;
    }
    if (w == "getstatic") {
        next();
        i.op = Opcode::GetStatic;
        auto [cls, fld] = splitLast(parseDottedName());
        if (cls.empty())
            fail("field reference needs a class name");
        i.field = _module.fieldRef(cls, fld);
        return i;
    }
    if (w == "aget") {
        next();
        i.op = Opcode::ArrayGet;
        int arr = parseReg();
        expectPunct("[");
        int idx = parseReg();
        expectPunct("]");
        i.srcs = _module.regs({arr, idx});
        return i;
    }
    if (w.rfind("invoke-", 0) == 0) {
        next();
        i.op = Opcode::Invoke;
        std::string kind_name = w.substr(7);
        if (!invokeKindFromName(kind_name, i.invokeKind))
            fail(strCat("bad invoke kind '", kind_name, "'"));
        auto [cls, mth] = splitLast(parseDottedName());
        if (cls.empty())
            fail("method reference needs a class name");
        i.method = _module.methodRef(cls, mth, 0);
        expectPunct("(");
        std::vector<int> args;
        while (!isPunct(")")) {
            args.push_back(parseReg());
            if (isPunct(","))
                next();
        }
        expectPunct(")");
        i.srcs = _module.regs(args.data(), args.size());
        i.method.numArgs = static_cast<int>(i.srcs.size());
        return i;
    }

    BinOpKind bop;
    if (binopFromName(w, bop)) {
        next();
        i.op = Opcode::BinOp;
        i.binop = bop;
        int lhs = parseReg();
        expectPunct(",");
        i.srcs = _module.regs({lhs, parseReg()});
        return i;
    }
    UnOpKind uop;
    if (unopFromName(w, uop)) {
        next();
        i.op = Opcode::UnOp;
        i.unop = uop;
        i.srcs = _module.regs({parseReg()});
        return i;
    }

    // Fallback: "rD = rS" move.
    if (w.size() >= 2 && w[0] == 'r' &&
        std::isdigit(static_cast<unsigned char>(w[1]))) {
        i.op = Opcode::Move;
        i.srcs = _module.regs({parseReg()});
        return i;
    }
    fail(strCat("unknown instruction '", w, "'"));
}

} // namespace

ParseStatus
parseInto(air::Module &module, const std::string &text)
{
    try {
        Lexer lexer(text);
        Parser parser(module, lexer.run());
        parser.run();
        return {};
    } catch (const ParseFail &e) {
        ParseStatus st;
        st.ok = false;
        st.error = e.what();
        st.errorLine = e.line;
        return st;
    }
}

namespace {

/** A whitespace token with quote support and line tracking. */
struct HeaderToken {
    std::string text;
    bool quoted{false};
    int line{1};
};

/** Tokenize the header region (everything up to its closing brace). */
bool
tokenizeHeader(const std::string &text, size_t &pos, int &line,
               std::vector<HeaderToken> &out, std::string &error)
{
    int depth = 0;
    bool seen_open = false;
    while (pos < text.size()) {
        char c = text[pos];
        if (c == '\n') {
            ++line;
            ++pos;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++pos;
            continue;
        }
        if (c == '#' ||
            (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/')) {
            while (pos < text.size() && text[pos] != '\n')
                ++pos;
            continue;
        }
        if (c == '"') {
            ++pos;
            HeaderToken t;
            t.quoted = true;
            t.line = line;
            while (pos < text.size() && text[pos] != '"') {
                if (text[pos] == '\n')
                    ++line;
                t.text += text[pos++];
            }
            if (pos >= text.size()) {
                error = "unterminated string in app header";
                return false;
            }
            ++pos;
            out.push_back(std::move(t));
            continue;
        }
        if (c == '{' || c == '}') {
            out.push_back({std::string(1, c), false, line});
            ++pos;
            depth += c == '{' ? 1 : -1;
            if (c == '{')
                seen_open = true;
            if (seen_open && depth == 0)
                return true; // header complete
            continue;
        }
        HeaderToken t;
        t.line = line;
        while (pos < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[pos])) &&
               text[pos] != '{' && text[pos] != '}' &&
               text[pos] != '"') {
            t.text += text[pos++];
        }
        out.push_back(std::move(t));
    }
    error = "unterminated app header block";
    return false;
}

class HeaderParser
{
  public:
    HeaderParser(const std::vector<HeaderToken> &tokens,
                 framework::AppTextResult &result)
        : _tokens(tokens), _result(result)
    {
    }

    std::unique_ptr<framework::App> run();

  private:
    const HeaderToken &peek() const { return _tokens[_idx]; }
    const HeaderToken &next() { return _tokens[_idx++]; }
    bool
    atEnd() const
    {
        return _idx >= _tokens.size();
    }
    bool
    is(const std::string &word) const
    {
        return !atEnd() && !peek().quoted && peek().text == word;
    }
    bool
    fail(const std::string &msg)
    {
        _result.error = msg;
        _result.errorLine = atEnd() ? 0 : peek().line;
        return false;
    }

    bool expect(const std::string &word);
    bool parseLayout(framework::App &app);

    const std::vector<HeaderToken> &_tokens;
    framework::AppTextResult &_result;
    size_t _idx{0};
};

bool
HeaderParser::expect(const std::string &word)
{
    if (!is(word))
        return fail("expected '" + word + "' in app header");
    next();
    return true;
}

bool
HeaderParser::parseLayout(framework::App &app)
{
    if (atEnd())
        return fail("layout needs an activity name");
    std::string activity = next().text;
    framework::Layout layout(activity);
    if (!expect("{"))
        return false;
    while (!is("}")) {
        if (atEnd())
            return fail("unterminated layout block");
        if (!expect("widget"))
            return false;
        framework::Widget w;
        if (atEnd())
            return fail("widget needs an id");
        try {
            w.id = std::stoi(next().text);
        } catch (...) {
            return fail("widget id must be an integer");
        }
        if (atEnd())
            return fail("widget needs a name");
        w.name = next().text;
        if (atEnd())
            return fail("widget needs a class");
        w.widgetClass = next().text;
        while (is("onclick") || is("after")) {
            std::string kw = next().text;
            if (atEnd())
                return fail("'" + kw + "' needs a value");
            if (kw == "onclick") {
                w.xmlOnClick = next().text;
            } else {
                try {
                    w.enabledAfter.push_back(std::stoi(next().text));
                } catch (...) {
                    return fail("'after' needs a widget id");
                }
            }
        }
        layout.addWidget(std::move(w));
    }
    next(); // '}'
    app.setLayout(activity, std::move(layout));
    return true;
}

std::unique_ptr<framework::App>
HeaderParser::run()
{
    if (!expect("app"))
        return nullptr;
    if (atEnd()) {
        fail("app needs a name");
        return nullptr;
    }
    auto app = std::make_unique<framework::App>(next().text);
    if (!expect("{"))
        return nullptr;

    while (!is("}")) {
        if (atEnd()) {
            fail("unterminated app block");
            return nullptr;
        }
        std::string kw = next().text;
        if (kw == "activity") {
            if (atEnd()) {
                fail("activity needs a class name");
                return nullptr;
            }
            std::string name = next().text;
            app->manifest().activities.push_back(name);
            if (is("main")) {
                next();
                app->manifest().mainActivity = name;
            }
            if (app->manifest().mainActivity.empty())
                app->manifest().mainActivity = name;
        } else if (kw == "service") {
            if (atEnd()) {
                fail("service needs a class name");
                return nullptr;
            }
            app->manifest().services.push_back({next().text});
        } else if (kw == "receiver") {
            if (atEnd()) {
                fail("receiver needs a class name");
                return nullptr;
            }
            framework::ReceiverSpec spec;
            spec.className = next().text;
            while (is("action")) {
                next();
                if (atEnd()) {
                    fail("'action' needs a value");
                    return nullptr;
                }
                spec.actions.push_back(next().text);
            }
            app->manifest().receivers.push_back(std::move(spec));
        } else if (kw == "package") {
            if (atEnd()) {
                fail("package needs a name");
                return nullptr;
            }
            app->manifest().packageName = next().text;
        } else if (kw == "layout") {
            if (!parseLayout(*app))
                return nullptr;
        } else {
            fail("unknown app-header keyword '" + kw + "'");
            return nullptr;
        }
    }
    next(); // '}'
    return app;
}

} // namespace

framework::AppTextResult
parseAppText(const std::string &text)
{
    framework::AppTextResult result;
    size_t pos = 0;
    int line = 1;
    std::vector<HeaderToken> tokens;
    if (!tokenizeHeader(text, pos, line, tokens, result.error)) {
        result.errorLine = line;
        return result;
    }

    HeaderParser parser(tokens, result);
    std::unique_ptr<framework::App> app = parser.run();
    if (!app)
        return result;

    // The rest of the file is plain AIR classes.
    air::ParseStatus status =
        parseInto(app->module(), text.substr(pos));
    if (!status.ok) {
        result.error = status.error;
        result.errorLine = line + status.errorLine - 1;
        return result;
    }
    framework::installFrameworkModel(app->module());

    // Sanity: every manifest entry must name a class in the module.
    for (const auto &a : app->manifest().activities) {
        if (!app->module().getClass(a)) {
            result.error = "manifest activity '" + a +
                           "' has no class in the module";
            return result;
        }
    }
    result.app = std::move(app);
    return result;
}

} // namespace ref

namespace {

/** Printed module, or the error triple, of one parse. */
std::string
outcome(const air::ParseStatus &st, const air::Module *module)
{
    if (!st.ok)
        return "error line " + std::to_string(st.errorLine) + ": " + st.error;
    return air::printModule(*module);
}

/** Parse one AIR text with both front ends; they must agree. */
void
expectSameModule(const std::string &text, const std::string &what)
{
    air::ParseResult got = air::parseModule(text);
    air::Module expected_module;
    air::ParseStatus expected = ref::parseInto(expected_module, text);
    ASSERT_EQ(got.status.ok, expected.ok) << what;
    EXPECT_EQ(outcome(got.status, got.module.get()),
              outcome(expected, &expected_module))
        << what;
}

std::string
outcome(const framework::AppTextResult &r)
{
    std::string head = "error line " + std::to_string(r.errorLine) + ": " +
                       r.error + "\n";
    if (!r.ok())
        return head;
    return head + framework::printAppText(*r.app) +
           air::printModule(r.app->module());
}

/** Parse one app bundle with both front ends; they must agree. */
void
expectSameApp(const std::string &text, const std::string &what)
{
    framework::AppTextResult got = framework::parseAppText(text);
    framework::AppTextResult expected = ref::parseAppText(text);
    ASSERT_EQ(got.ok(), expected.ok()) << what;
    EXPECT_EQ(outcome(got), outcome(expected)) << what;
}

void
expectSameOnBuiltApp(const corpus::BuiltApp &built)
{
    const std::string &name = built.app->name();
    expectSameApp(framework::printAppText(*built.app), name);
    expectSameModule(air::printModule(built.app->module()), name);
}

TEST(AirParserDiff, NamedApps)
{
    for (const auto &spec : corpus::namedAppSpecs())
        expectSameOnBuiltApp(corpus::buildNamedApp(spec));
}

TEST(AirParserDiff, FdroidApps)
{
    for (int i = 0; i < corpus::kFdroidAppCount; ++i)
        expectSameOnBuiltApp(corpus::buildFdroidApp(i));
}

TEST(AirParserDiff, HeavyShapeSyntheticApps)
{
    // The perfbench heavy-app shape: 3 activities x 12 patterns, drawn
    // from the first apps of its pinned pool.
    for (uint32_t i = 0; i < 12; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = 0x4EA7u * 1000003u + i;
        spec.activities = 3;
        spec.minPatternsPerActivity = 12;
        spec.maxPatternsPerActivity = 12;
        expectSameOnBuiltApp(corpus::generateSyntheticApp(
            "Heavy" + std::to_string(i), spec));
    }
}

TEST(AirParserDiff, RobustnessSweeps)
{
    int i = 0;
    for (const std::string &input : test::randomModuleInputs())
        expectSameModule(input, "random module " + std::to_string(i++));
    i = 0;
    for (const std::string &input : test::mutatedModuleInputs())
        expectSameModule(input, "mutated module " + std::to_string(i++));
    i = 0;
    for (const std::string &input : test::randomBundleInputs())
        expectSameApp(input, "random bundle " + std::to_string(i++));
    i = 0;
    for (const std::string &input : test::truncatedBundleInputs())
        expectSameApp(input, "truncated bundle " + std::to_string(i++));
    expectSameApp(test::deepNestingBundle(), "deep nesting");
}

TEST(AirParserDiff, SplitNamesCommentsAndEscapes)
{
    // Shapes the printer never writes but the grammar accepts.
    const char *texts[] = {
        "class a . b // c\n . d extends x.\n# c\ny { field f: a . b [ ] }",
        "class A { method f(): void regs=2 { @0: r1 = const \"x\\\"y\\nz\"\n"
        " @1: r1 = const \"multi\nline\" @2: return-void } }",
        "class A { method f(): void regs=2 { @0: r1 = const \"a\\\nb\" "
        "@1: return x } }",
        "class A { method f(): void regs=1 { @0: return r1 } } %",
        "class A { method f(): void regs=1 { @0: frob } } \"open",
        "class A { method f(): void regs=1 { @0: r0 = invoke-static A. } }",
        "class A { method f(): void regs=1 { @0: goto @-1 } }",
        "class A {} class A {} /",
    };
    for (const char *t : texts)
        expectSameModule(t, t);
}

TEST(AirParserDiff, HeaderEdgeCases)
{
    const char *body = "\nclass Main extends android.app.Activity {\n"
                       "    method <init>(): void regs=1 { @0: return-void }\n"
                       "}\n";
    const char *headers[] = {
        "app \"a\" { activity Main main layout Main { widget \" 12\" n c "
        "widget +13 m c after \"\n14\" widget 15abc o c after -16 } }",
        "app \"a\" { activity Main layout Main { widget 99999999999 n c } }",
        "app \"a\" { activity Main layout Main { widget x n c } }",
        "app \"a\" { activity Main layout Main { widget 1 n c after +-2 } }",
        "app \"a\" { frob Main \"open }",
        "app \"a\" { activity Main } }",
        "app { { } x activity Main }",
        "app \"a\" { activity Main \n# comment }\n// x {\n}",
        "app \"a\" { activity",
        "app \"a\" { activity Main } \"",
    };
    for (const char *h : headers)
        expectSameApp(std::string(h) + body, h);
}

} // namespace
} // namespace sierra
