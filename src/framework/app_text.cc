#include "app_text.hh"

#include <charconv>
#include <sstream>

#include "air/parser.hh"
#include "air/printer.hh"
#include "known_api.hh"

namespace sierra::framework {

namespace {

/** isspace() in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * std::stoi without exceptions: optional leading whitespace and sign,
 * then at least one digit; trailing characters are ignored. False when
 * there is no digit or the value does not fit in int.
 */
bool
leadingInt(std::string_view s, int &out)
{
    size_t i = 0;
    while (i < s.size() && isSpace(s[i]))
        ++i;
    size_t first = i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-'))
        ++i;
    if (i >= s.size() || s[i] < '0' || s[i] > '9')
        return false;
    if (s[first] == '+')
        ++first; // from_chars takes a '-' but no '+'
    return std::from_chars(s.data() + first, s.data() + s.size(), out).ec ==
           std::errc();
}

/** A whitespace-separated header token: a view into the app text. */
struct HeaderToken {
    std::string_view text;
    bool quoted{false};
    int line{1};
};

/**
 * Streaming tokenizer for the header region, everything up to the brace
 * that closes the header block; one token of lookahead. Quoted tokens
 * view the text between the quotes.
 */
class HeaderLexer
{
  public:
    explicit HeaderLexer(std::string_view text) : _text(text) { advance(); }

    /** No token left: the header closed, or it is malformed. */
    bool atEnd() const { return _done; }
    const HeaderToken &peek() const { return _tok; }
    void advance();

    /** Tokenize the rest of the header. False if it is malformed;
     *  error() then says why and line() where. */
    bool
    finish()
    {
        while (!_done)
            advance();
        return _error == nullptr;
    }
    const char *error() const { return _error; }
    int line() const { return _line; }
    /** Offset just past the header's closing brace. */
    size_t pos() const { return _pos; }

  private:
    void
    stop(const char *error)
    {
        _error = error;
        _done = true;
    }

    std::string_view _text;
    size_t _pos{0};
    int _line{1};
    int _depth{0};
    bool _seenOpen{false};
    bool _closed{false}; //!< the current token closes the header
    bool _done{false};
    const char *_error{nullptr};
    HeaderToken _tok;
};

void
HeaderLexer::advance()
{
    if (_closed || _done) {
        _done = true;
        return;
    }
    while (_pos < _text.size()) {
        char c = _text[_pos];
        if (c == '\n') {
            ++_line;
            ++_pos;
            continue;
        }
        if (isSpace(c)) {
            ++_pos;
            continue;
        }
        if (c == '#' ||
            (c == '/' && _pos + 1 < _text.size() && _text[_pos + 1] == '/')) {
            while (_pos < _text.size() && _text[_pos] != '\n')
                ++_pos;
            continue;
        }
        _tok.line = _line;
        _tok.quoted = c == '"';
        size_t start = _pos;
        if (c == '"') {
            start = ++_pos;
            while (_pos < _text.size() && _text[_pos] != '"') {
                if (_text[_pos] == '\n')
                    ++_line;
                ++_pos;
            }
            if (_pos >= _text.size())
                return stop("unterminated string in app header");
            _tok.text = _text.substr(start, _pos - start);
            ++_pos;
            return;
        }
        if (c == '{' || c == '}') {
            _tok.text = _text.substr(_pos++, 1);
            _depth += c == '{' ? 1 : -1;
            if (c == '{')
                _seenOpen = true;
            _closed = _seenOpen && _depth == 0;
            return;
        }
        while (_pos < _text.size() && !isSpace(_text[_pos]) &&
               _text[_pos] != '{' && _text[_pos] != '}' &&
               _text[_pos] != '"') {
            ++_pos;
        }
        _tok.text = _text.substr(start, _pos - start);
        return;
    }
    stop("unterminated app header block");
}

class HeaderParser
{
  public:
    HeaderParser(HeaderLexer &lexer, AppTextResult &result)
        : _lex(lexer), _result(result)
    {
    }

    std::unique_ptr<App> run();

  private:
    const HeaderToken &peek() const { return _lex.peek(); }
    /** The current token's text (a view into the app text); advances. */
    std::string_view
    next()
    {
        std::string_view text = peek().text;
        _lex.advance();
        return text;
    }
    bool atEnd() const { return _lex.atEnd(); }
    bool
    is(std::string_view word) const
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

    bool expect(const char *word);
    bool parseLayout(App &app);

    HeaderLexer &_lex;
    AppTextResult &_result;
};

bool
HeaderParser::expect(const char *word)
{
    if (!is(word))
        return fail(std::string("expected '") + word + "' in app header");
    next();
    return true;
}

bool
HeaderParser::parseLayout(App &app)
{
    if (atEnd())
        return fail("layout needs an activity name");
    std::string activity(next());
    Layout layout(activity);
    if (!expect("{"))
        return false;
    while (!is("}")) {
        if (atEnd())
            return fail("unterminated layout block");
        if (!expect("widget"))
            return false;
        Widget w;
        if (atEnd())
            return fail("widget needs an id");
        if (!leadingInt(next(), w.id))
            return fail("widget id must be an integer");
        if (atEnd())
            return fail("widget needs a name");
        w.name = next();
        if (atEnd())
            return fail("widget needs a class");
        w.widgetClass = next();
        while (is("onclick") || is("after")) {
            std::string_view kw = next();
            if (atEnd())
                return fail(std::string("'") + std::string(kw) +
                            "' needs a value");
            if (kw == "onclick") {
                w.xmlOnClick = next();
            } else {
                int dep = 0;
                if (!leadingInt(next(), dep))
                    return fail("'after' needs a widget id");
                w.enabledAfter.push_back(dep);
            }
        }
        layout.addWidget(std::move(w));
    }
    next(); // '}'
    app.setLayout(activity, std::move(layout));
    return true;
}

std::unique_ptr<App>
HeaderParser::run()
{
    if (!expect("app"))
        return nullptr;
    if (atEnd()) {
        fail("app needs a name");
        return nullptr;
    }
    auto app = std::make_unique<App>(std::string(next()));
    if (!expect("{"))
        return nullptr;

    while (!is("}")) {
        if (atEnd()) {
            fail("unterminated app block");
            return nullptr;
        }
        std::string_view kw = next();
        if (kw == "activity") {
            if (atEnd()) {
                fail("activity needs a class name");
                return nullptr;
            }
            std::string name(next());
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
            app->manifest().services.push_back({std::string(next())});
        } else if (kw == "receiver") {
            if (atEnd()) {
                fail("receiver needs a class name");
                return nullptr;
            }
            ReceiverSpec spec;
            spec.className = next();
            while (is("action")) {
                next();
                if (atEnd()) {
                    fail("'action' needs a value");
                    return nullptr;
                }
                spec.actions.emplace_back(next());
            }
            app->manifest().receivers.push_back(std::move(spec));
        } else if (kw == "package") {
            if (atEnd()) {
                fail("package needs a name");
                return nullptr;
            }
            app->manifest().packageName = next();
        } else if (kw == "layout") {
            if (!parseLayout(*app))
                return nullptr;
        } else {
            fail("unknown app-header keyword '" + std::string(kw) + "'");
            return nullptr;
        }
    }
    next(); // '}'
    return app;
}

} // namespace

AppTextResult
parseAppText(std::string_view text)
{
    AppTextResult result;
    HeaderLexer lexer(text);
    std::unique_ptr<App> app = HeaderParser(lexer, result).run();
    // A malformed header block outranks what the parser said about it.
    if (!lexer.finish()) {
        result.error = lexer.error();
        result.errorLine = lexer.line();
        return result;
    }
    if (!app)
        return result;

    // The rest of the file is plain AIR classes.
    air::ParseStatus status =
        air::parseInto(app->module(), text.substr(lexer.pos()));
    if (!status.ok) {
        result.error = status.error;
        result.errorLine = lexer.line() + status.errorLine - 1;
        return result;
    }
    installFrameworkModel(app->module());

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

std::string
printAppText(const App &app, bool with_bodies)
{
    std::ostringstream os;
    os << "app \"" << app.name() << "\" {\n";
    if (!app.manifest().packageName.empty()) {
        // Quoted: package names derived from app names may contain
        // spaces (e.g. "org.sierra.K-9 Mail").
        os << "    package \"" << app.manifest().packageName << "\"\n";
    }
    for (const auto &a : app.manifest().activities) {
        os << "    activity " << a;
        if (a == app.manifest().mainActivity)
            os << " main";
        os << "\n";
    }
    for (const auto &s : app.manifest().services)
        os << "    service " << s.className << "\n";
    for (const auto &r : app.manifest().receivers) {
        os << "    receiver " << r.className;
        for (const auto &action : r.actions)
            os << " action \"" << action << "\"";
        os << "\n";
    }
    for (const auto &[activity, layout] : app.layouts()) {
        os << "    layout " << activity << " {\n";
        for (const auto &w : layout.widgets()) {
            os << "        widget " << w.id << " \"" << w.name << "\" "
               << w.widgetClass;
            if (!w.xmlOnClick.empty())
                os << " onclick " << w.xmlOnClick;
            for (int dep : w.enabledAfter)
                os << " after " << dep;
            os << "\n";
        }
        os << "    }\n";
    }
    os << "}\n\n";

    for (const air::Klass *k : app.module().classes()) {
        if (k->isFramework() || k->isSynthetic())
            continue;
        os << air::printKlass(*k, with_bodies) << "\n";
    }
    return os.str();
}

} // namespace sierra::framework
